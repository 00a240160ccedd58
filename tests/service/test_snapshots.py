"""Snapshot isolation: pinning, overlay privacy, shared services."""

from __future__ import annotations

import pytest

from repro.api.database import Database
from repro.core.execute import run_resilient
from repro.service import QueryService, SessionDefaults
from repro.service.snapshots import SnapshotDatabase


class TestSnapshotCapture:
    def test_version_tracks_catalog(self, service):
        first = service.snapshot()
        service.execute("INSERT INTO f VALUES (3, 'z', 1.0)")
        second = service.snapshot()
        assert second.version > first.version

    def test_equal_versions_equal_fingerprints(self, service):
        assert service.snapshot().fingerprint == \
            service.snapshot().fingerprint

    def test_table_identities(self, service):
        identities = service.snapshot().table_identities()
        assert set(identities) == {"f"}
        name, _version = identities["f"]
        assert name == "f"


class TestSnapshotReader:
    def test_reader_pinned_across_writes(self, service, db):
        reader = service.snapshots.reader(service.snapshot())
        service.execute("INSERT INTO f VALUES (3, 'z', 1.0)")
        assert reader.query("SELECT count(*) FROM f") == [(4,)]
        assert db.query("SELECT count(*) FROM f") == [(5,)]

    def test_same_results_as_base(self, service, db):
        reader = service.snapshots.reader()
        sql = "SELECT d1, sum(a) FROM f GROUP BY d1 ORDER BY d1"
        assert reader.query(sql) == db.query(sql)

    def test_overlay_dml_invisible_to_base(self, service, db):
        reader = service.snapshots.reader()
        reader.execute("CREATE TABLE private (x INT)")
        reader.execute("INSERT INTO private VALUES (1)")
        assert reader.has_table("private")
        assert not db.has_table("private")
        reader.drop_table("private")

    def test_percentage_plan_runs_in_overlay(self, service, db):
        reader = service.snapshots.reader()
        before = db.catalog.fingerprint()
        report = run_resilient(
            reader, "SELECT d1, Vpct(a) FROM f GROUP BY d1")
        assert report.result.n_rows == 2
        # The multi-statement plan created and dropped temps entirely
        # inside the overlay; the base catalog never changed.
        assert db.catalog.fingerprint() == before
        assert not [n for n in reader.table_names()
                    if n.startswith("_")]

    def test_reader_shares_stats_and_cache(self, service, db):
        reader = service.snapshots.reader()
        assert reader.stats is db.stats
        assert reader.governor is db.governor
        # The overlay holds the base's own table objects, so a reader
        # and the base fill and read the same encoding memos.
        assert reader.table("f").column("d1").memo \
            is db.table("f").column("d1").memo

    def test_session_defaults_reach_reader_options(self, service, db):
        defaults = SessionDefaults(case_dispatch="hash")
        reader = service.snapshots.reader(
            options=defaults.resolve(db.options))
        assert reader.options.case_dispatch == "hash"
        # The base database's own options are untouched.
        assert db.options.case_dispatch == "linear"

    def test_reader_is_a_database(self, service):
        assert isinstance(service.snapshots.reader(), Database)
        assert isinstance(service.snapshots.reader(), SnapshotDatabase)

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    def test_reader_has_the_whole_database_surface(self, storage,
                                                   tmp_path):
        """A reader is assembled by the constructor its base is, so
        the storage lifecycle exists on it -- read-only: it reports
        the base's store and never checkpoints or closes it."""
        kwargs = {} if storage == "memory" else dict(
            storage="disk", storage_path=str(tmp_path), pool_pages=8)
        with Database(**kwargs) as db, QueryService(db) as service:
            db.execute("CREATE TABLE f (a INT)")
            db.execute("INSERT INTO f VALUES (1), (2)")
            assert vars(service.snapshots.reader()).keys() \
                >= vars(db).keys()
            with service.snapshots.reader() as reader:
                assert reader.storage_info() == db.storage_info()
                assert reader.storage_info()["backend"] == storage
                reader.checkpoint()
            reader.close()
            # The base store is still open and still the base's.
            assert reader.query("SELECT count(*) FROM f") == [(2,)]
            db.execute("INSERT INTO f VALUES (3)")
            db.checkpoint()
            assert db.query("SELECT count(*) FROM f") == [(3,)]


class TestWriterInteraction:
    def test_acquire_waits_out_write_scripts(self, service):
        # A snapshot taken while the writer lock is held would tear the
        # script; acquisition must block until release.
        with service.write_lock:
            service.db.execute("INSERT INTO f VALUES (7, 'q', 1.0)")
            # Same thread: RLock reentry keeps this non-blocking here,
            # but the captured state must include the in-flight write
            # statement only because we are the writer.
            snap = service.snapshot()
        assert snap.version == service.db.catalog.version

    def test_failed_write_script_not_visible(self, service, db):
        before = service.snapshot()
        with pytest.raises(Exception):
            service.execute(
                "INSERT INTO f VALUES (8, 'r', 2.0); "
                "SELECT nope FROM missing_table")
        after = service.snapshot()
        assert after.fingerprint == before.fingerprint
        assert db.query("SELECT count(*) FROM f") == [(4,)]
