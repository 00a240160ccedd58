"""Disk-backend end-to-end tests: durability, recovery, EXPLAIN,
stats accounting, checkpoint reclamation and configuration errors."""

import gc
import json
import os
import weakref

import pytest

from repro import Database
from repro.engine.catalog import IndexDefinition
from repro.errors import StorageError
from repro.storage.pages import payload_capacity
from tests.conftest import PAPER_SALES_ROWS

SALES_SCHEMA = [("rid", "int"), ("state", "varchar"),
                ("city", "varchar"), ("salesamt", "real")]


def _disk_db(path, **kwargs):
    kwargs.setdefault("pool_pages", 8)
    kwargs.setdefault("page_size", 512)
    return Database(storage="disk", storage_path=str(path), **kwargs)


def _load_sales(db):
    db.load_table("sales", SALES_SCHEMA, PAPER_SALES_ROWS,
                  primary_key=["rid"])


# ----------------------------------------------------------------------
# Durability and recovery
# ----------------------------------------------------------------------
def test_results_match_memory_backend(tmp_path):
    query = ("SELECT state, SUM(salesamt) AS total FROM sales "
             "GROUP BY state ORDER BY state")
    mem = Database()
    _load_sales(mem)
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        assert db.query(query) == mem.query(query)


def test_dml_survives_reopen(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.execute("UPDATE sales SET salesamt = 99.0 WHERE rid = 1")
        db.execute("DELETE FROM sales WHERE state = 'TX'")
        expected = db.query("SELECT * FROM sales ORDER BY rid")
    with _disk_db(tmp_path) as db:
        assert db.query("SELECT * FROM sales ORDER BY rid") == expected


def test_views_and_indexes_recovered(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.execute("CREATE VIEW ca_sales AS SELECT * FROM sales "
                   "WHERE state = 'CA'")
        db.execute("CREATE INDEX idx_state ON sales (state)")
        expected = db.query("SELECT rid FROM ca_sales ORDER BY rid")
    with _disk_db(tmp_path) as db:
        assert db.query("SELECT rid FROM ca_sales ORDER BY rid") \
            == expected
        assert dict(db.catalog.snapshot().indexes) == {
            "idx_state": IndexDefinition("idx_state", "sales",
                                         ("state",))}


def test_drop_table_survives_reopen(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.load_table("other", [("a", "int")], [(1,)])
        db.drop_table("other")
    with _disk_db(tmp_path) as db:
        assert db.table_names() == ["sales"]


def test_abandon_recovers_committed_state(tmp_path):
    # abandon() releases handles without checkpointing -- the on-disk
    # state is what a kill would leave; reopen must replay the WAL.
    db = _disk_db(tmp_path)
    _load_sales(db)
    db.execute("UPDATE sales SET salesamt = 7.0 WHERE rid = 2")
    expected = db.query("SELECT * FROM sales ORDER BY rid")
    db.storage_engine.abandon()
    with _disk_db(tmp_path) as db:
        assert db.query("SELECT * FROM sales ORDER BY rid") == expected


def test_page_size_mismatch_rejected(tmp_path):
    with _disk_db(tmp_path, page_size=512):
        pass
    with pytest.raises(StorageError, match="page_size"):
        _disk_db(tmp_path, page_size=1024)


def test_unreadable_checkpoint_rejected(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
    with open(os.path.join(tmp_path, "checkpoint.json"), "w") as fh:
        fh.write("{not json")
    with pytest.raises(StorageError, match="unreadable checkpoint"):
        _disk_db(tmp_path)


# ----------------------------------------------------------------------
# Checkpoint reclamation
# ----------------------------------------------------------------------
def test_checkpoint_truncates_wal_and_reclaims_pages(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        # Each UPDATE shadow-writes the page it changes; the page it
        # replaces becomes garbage reclaimable only at the next
        # checkpoint.
        for value in (1.0, 2.0, 3.0):
            db.execute(f"UPDATE sales SET salesamt = {value} "
                       f"WHERE rid = 1")
        assert db.storage_info()["wal_bytes"] > 0
        allocated = db.storage_info()["allocated_pages"]
        db.checkpoint()
        info = db.storage_info()
        assert info["wal_bytes"] == 0
        assert info["free_pages"] > 0
        assert info["allocated_pages"] == allocated
        # Reclaimed pages are reused, not appended after.
        db.execute("UPDATE sales SET salesamt = 4.0 WHERE rid = 1")
        assert db.storage_info()["allocated_pages"] == allocated


def test_store_directory_stays_clean(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.checkpoint()
    assert sorted(os.listdir(tmp_path)) == \
        ["checkpoint.json", "data.pages", "wal.log"]


# ----------------------------------------------------------------------
# EXPLAIN and stats accounting
# ----------------------------------------------------------------------
def _explain_lines(db, sql):
    return [row[0] for row in db.execute(f"EXPLAIN {sql}").to_rows()]


def test_explain_reports_storage_line(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        lines = _explain_lines(db, "SELECT * FROM sales")
        storage_lines = [l for l in lines if l.startswith("storage:")]
        assert len(storage_lines) == 1
        assert storage_lines[0].startswith(
            "storage: disk page_size=512 pool=")
        # The storage line is the last plan line.
        assert lines[-1] == storage_lines[0]


def test_explain_omits_storage_line_on_memory_backend():
    db = Database()
    _load_sales(db)
    lines = _explain_lines(db, "SELECT * FROM sales")
    assert not [l for l in lines if l.startswith("storage:")]


def test_stats_ledger_invariant(tmp_path):
    with _disk_db(tmp_path, pool_pages=2) as db:
        _load_sales(db)
        for _ in range(3):
            db.query("SELECT SUM(salesamt) FROM sales")
        stats = db.stats
        assert stats.storage_page_fetches > 0
        assert stats.storage_pool_hits + stats.storage_page_reads \
            == stats.storage_page_fetches
        # The ledger counts exactly the pool's fetch traffic.
        pool = db.storage_engine.pool
        assert pool.hits + pool.misses >= stats.storage_page_fetches


def test_memory_backend_never_charges_storage_counters():
    db = Database()
    _load_sales(db)
    db.query("SELECT SUM(salesamt) FROM sales")
    assert db.stats.storage_page_fetches == 0


def test_tiny_pool_forces_evictions_without_changing_answers(tmp_path):
    query = "SELECT state, city, salesamt FROM sales ORDER BY rid"
    mem = Database()
    _load_sales(mem)
    with _disk_db(tmp_path, pool_pages=1, page_size=64) as db:
        _load_sales(db)
        assert db.query(query) == mem.query(query)
        assert db.storage_engine.pool.evictions > 0


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
def test_database_kwarg_validation(tmp_path):
    with pytest.raises(ValueError, match="storage must be one of"):
        Database(storage="tape")
    with pytest.raises(ValueError, match="requires storage_path"):
        Database(storage="disk")
    with pytest.raises(ValueError, match="only valid with"):
        Database(storage_path=str(tmp_path))
    with pytest.raises(ValueError, match="pool_pages"):
        _disk_db(tmp_path, pool_pages=0)


def test_storage_info_backends(tmp_path):
    assert Database().storage_info() == {"backend": "memory"}
    with _disk_db(tmp_path) as db:
        info = db.storage_info()
        assert info["backend"] == "disk"
        assert info["page_size"] == 512
        assert info["pool"]["capacity"] == 8


def test_memory_close_and_checkpoint_are_noops():
    db = Database()
    _load_sales(db)
    db.checkpoint()
    db.close()
    db.close()


def test_checkpoint_manifest_is_json(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
    with open(os.path.join(tmp_path, "checkpoint.json")) as fh:
        state = json.load(fh)
    assert state["format"] == 3
    assert state["page_size"] == 512
    assert "sales" in state["tables"]
    entry = state["tables"]["sales"]
    assert entry["n_rows"] == len(PAPER_SALES_ROWS)
    assert set(entry["pages"]) == {"rid", "state", "city", "salesamt"}


def test_shadow_copy_keeps_the_table_version(tmp_path):
    """``persist_table`` is a copy of the same content, so it carries
    the heap table's version -- the identity a materialized view
    maintained against the heap table was stamped with."""
    from repro.engine.table import Table

    with _disk_db(tmp_path) as db:
        _load_sales(db)
        heap = Table(db.table("sales").schema,
                     {c.name: db.table("sales").column(c.name)
                      for c in db.table("sales").schema.columns})
        stored = db.storage_engine.persist_table(heap)
        assert stored.version == heap.version
        assert stored.to_rows() == heap.to_rows()


def test_replaced_version_is_freed_by_refcount(tmp_path):
    """A StoredTable is in no reference cycle: the version an UPDATE
    replaces, and the encoding memos it holds, go as soon as nothing
    (no snapshot, no savepoint) pins it, without the cyclic
    collector."""
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.query("SELECT state, sum(salesamt) FROM sales GROUP BY state")
        old = weakref.ref(db.table("sales"))
        gc.disable()
        try:
            db.execute("UPDATE sales SET salesamt = 0 WHERE rid = 1")
            assert old() is None
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Page sharing between versions
# ----------------------------------------------------------------------
#: Bytes per row at the head of each column's chunk of ``t``: the
#: INTEGER and REAL values, the VARCHAR lengths.
ROW_BYTES = {"k": 8, "v": 8, "name": 4}
CAPACITY = payload_capacity(512)


def _numbered(db, n=1000):
    db.load_table("t", [("k", "int"), ("v", "real"), ("name", "varchar")],
                  [(i, i * 0.5, f"n{i}") for i in range(n)])


def test_one_row_update_replaces_only_the_pages_holding_it(tmp_path):
    with _disk_db(tmp_path) as db:
        _numbered(db)
        old = db.table("t")
        before = old.page_map()
        written = db.storage_engine.pool.pages_written
        db.execute("UPDATE t SET k = -1 WHERE k = 500")
        after = db.table("t").page_map()
        slots = {8 * 500 // CAPACITY, (8 * 500 + 7) // CAPACITY}
        assert after["v"] == before["v"]
        assert after["name"] == before["name"]
        assert len(after["k"]) == len(before["k"])
        assert {slot for slot, (a, b) in
                enumerate(zip(before["k"], after["k"]))
                if a != b} == slots
        # A replaced slot gets a fresh page, never one a version reads.
        assert not {after["k"][slot] for slot in slots} & old.page_ids()
        assert db.storage_engine.pool.pages_written - written \
            == len(slots)
        assert db.query("SELECT k FROM t WHERE k < 0") == [(-1,)]


def test_multi_page_insert_shares_every_full_values_page(tmp_path):
    with _disk_db(tmp_path) as db:
        _numbered(db)
        before = db.table("t").page_map()
        db.execute("INSERT INTO t SELECT k + 1000, v, name FROM t "
                   "WHERE k < 300")
        after = db.table("t").page_map()
        for name, width in ROW_BYTES.items():
            full = 1000 * width // CAPACITY
            assert full > 1
            assert after[name][:full] == before[name][:full]
            assert not set(after[name][full:]) & set(before[name])
        assert db.query("SELECT count(*), max(k) FROM t") == [(1300, 1299)]


def test_update_that_changes_nothing_writes_no_page(tmp_path,
                                                    monkeypatch):
    with _disk_db(tmp_path) as db:
        _numbered(db)
        engine = db.storage_engine
        before = db.table("t").page_map()
        syncs = []
        sync = engine.disk.sync
        monkeypatch.setattr(engine.disk, "sync",
                            lambda: (syncs.append(True), sync()))
        written = engine.pool.pages_written
        wal_bytes = engine.wal.size_bytes()
        db.execute("UPDATE t SET k = k, name = name WHERE k < 100")
        assert engine.pool.pages_written == written
        assert syncs == []
        # The new version still commits.
        assert engine.wal.size_bytes() > wal_bytes
        assert db.table("t").page_map() == before


def test_middle_delete_rewrites_from_the_first_deleted_rows_page(
        tmp_path):
    with _disk_db(tmp_path) as db:
        _numbered(db)
        before = db.table("t").page_map()
        db.execute("DELETE FROM t WHERE k >= 500 AND k < 520")
        after = db.table("t").page_map()
        for name, width in ROW_BYTES.items():
            first = 500 * width // CAPACITY
            assert after[name][:first] == before[name][:first]
            assert not set(after[name][first:]) & set(before[name])
        assert db.query("SELECT count(*) FROM t") == [(980,)]


def test_rollback_to_a_sharing_version_survives_checkpoint(tmp_path):
    """Savepoint rollback re-publishes a version whose pages its
    successors shared; the checkpoint after it must keep every page
    that version reads and reuse only the ones it does not."""
    query = "SELECT * FROM t ORDER BY k"
    mem = Database()
    with _disk_db(tmp_path) as db:
        for each in (mem, db):
            _numbered(each)
            each.execute("UPDATE t SET v = -1 WHERE k = 10")
            savepoint = each.catalog.savepoint()
            each.execute("INSERT INTO t SELECT k + 1000, v, name FROM t "
                         "WHERE k < 50")
            each.execute("UPDATE t SET name = 'renamed' WHERE k = 20")
            rolled_back = each.table("t")
            each.catalog.rollback(savepoint)
        restored = db.table("t")
        assert restored is savepoint.tables["t"]
        assert restored.page_ids() & rolled_back.page_ids()
        assert rolled_back.page_ids() - restored.page_ids()
        db.checkpoint()
        for each in (mem, db):
            each.execute("UPDATE t SET k = k + 1 WHERE k >= 900")
        assert db.query(query) == mem.query(query)
    with _disk_db(tmp_path) as db:
        assert db.query(query) == mem.query(query)


def test_format_one_store_is_refused(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
    path = os.path.join(tmp_path, "checkpoint.json")
    with open(path) as fh:
        state = json.load(fh)
    state["format"] = 1
    with open(path, "w") as fh:
        json.dump(state, fh)
    with pytest.raises(StorageError, match="format 1"):
        _disk_db(tmp_path)


# ----------------------------------------------------------------------
# Pages a write reads
# ----------------------------------------------------------------------
SMALL_CAPACITY = payload_capacity(256)


def _fetching(db, monkeypatch):
    """The page ids the pool fetches from now on, in order."""
    pool = db.storage_engine.pool
    fetched = []
    fetch_many = pool.fetch_many
    monkeypatch.setattr(pool, "fetch_many", lambda page_ids: (
        fetched.extend(page_ids), fetch_many(page_ids))[1])
    return fetched


@pytest.mark.parametrize("r", [1, 40])
def test_insert_select_reads_its_where_column_and_o_r_pages_of_the_rest(
        tmp_path, monkeypatch, r):
    """An INSERT ... SELECT of ``r`` contiguous rows reads its WHERE
    column whole; of every other column only the slots holding the
    ``r`` rows, their null bits, and for the append the boundary page
    and the null bitmap's pages."""
    n = 2000
    with _disk_db(tmp_path, page_size=256) as db:
        db.load_table("t", [("k", "int"), ("a", "int"), ("v", "real"),
                            ("flag", "boolean")],
                      [(i, i % 7, i * 0.5, i % 3 == 0) for i in range(n)])
        pages = db.table("t").page_map()
        fetched = _fetching(db, monkeypatch)
        before = db.stats.storage_page_fetches
        db.execute(f"INSERT INTO t SELECT k + {n}, a, v, flag FROM t "
                   f"WHERE k BETWEEN 1000 AND {999 + r}")
        assert db.stats.storage_page_fetches - before == len(fetched)
        assert set(pages["k"]) <= set(fetched)
        bitmap_pages = -(-n // 8 // SMALL_CAPACITY) + 1
        for name in ("a", "v", "flag"):
            read = [pid for pid in fetched if pid in set(pages[name])]
            assert len(read) <= r * 8 // SMALL_CAPACITY + 4 \
                + bitmap_pages, name
        assert len(fetched) < sum(map(len, pages.values())) // 2
        assert db.query(f"SELECT count(*), sum(a), sum(v) FROM t "
                        f"WHERE k >= {n}") == db.query(
            f"SELECT count(*), sum(a), sum(v) FROM t "
            f"WHERE k BETWEEN 1000 AND {999 + r}")


def _five_columns(db, n=2000):
    db.load_table("t", [("k", "int"), ("a", "int"), ("b", "int"),
                        ("c", "int"), ("name", "varchar")],
                  [(i, i % 11, i % 13, i % 5, f"n{i}") for i in range(n)])


def test_update_reads_no_page_of_a_column_nothing_names(tmp_path,
                                                        monkeypatch):
    """The row-store rewrite of an UPDATE's unassigned columns is
    page sharing: a column neither the UPDATE nor a view on the table
    names is not read, and keeps every page."""
    with _disk_db(tmp_path, page_size=256) as db:
        _five_columns(db)
        db.execute("CREATE MATERIALIZED VIEW by_c AS "
                   "SELECT c, sum(a) FROM t GROUP BY c")
        pages = db.table("t").page_map()
        fetched = _fetching(db, monkeypatch)
        before = db.stats.storage_page_fetches
        assert db.execute("UPDATE t SET a = a + 100 WHERE b = 3") == 154
        assert db.stats.storage_page_fetches - before == len(fetched)
        assert not set(fetched) & (set(pages["k"]) | set(pages["name"]))
        after = db.table("t").page_map()
        assert {name: after[name] == pages[name] for name in after} == {
            "k": True, "a": False, "b": True, "c": True, "name": True}
        assert db.catalog.matview("by_c").fresh(db.table("t"))
        assert db.query("SELECT sum(a) FROM t") == [(
            sum(i % 11 for i in range(2000)) + 100 * 154,)]


def test_update_maintenance_reuses_the_column_its_where_read(
        tmp_path, monkeypatch):
    """A version that keeps a column shares the weak column cache of
    the version it replaces: the view's maintenance finds the WHERE
    column the UPDATE's scan read, and fetches none of its pages
    again."""
    with _disk_db(tmp_path, page_size=256) as db:
        _five_columns(db)
        db.execute("CREATE MATERIALIZED VIEW by_c AS "
                   "SELECT c, sum(a) FROM t GROUP BY c")
        pages = db.table("t").page_map()
        fetched = _fetching(db, monkeypatch)
        db.execute("UPDATE t SET a = a + 1 WHERE c = 3")
        assert sorted(pid for pid in fetched if pid in set(pages["c"])) \
            == sorted(pages["c"])


def test_dml_in_a_reader_overlay_stacks_versions_off_pages(tmp_path):
    """A snapshot reader's overlay catalog has no store, so its DML
    publishes versions that never reach pages -- appended, replaced
    and gathered columns stacked on one another -- and they answer as
    the memory backend's, leaving the base untouched."""
    from repro.service.snapshots import SnapshotManager

    script = ("UPDATE t SET v = 0 WHERE k < 10",
              "INSERT INTO t SELECT k + 100, v FROM t WHERE k < 5",
              "INSERT INTO t VALUES (500, 7)",
              "DELETE FROM t WHERE k = 3",
              "UPDATE t SET v = v + 1 WHERE k > 50",
              "INSERT INTO t SELECT k + 1000, v FROM t WHERE k >= 100")
    with _disk_db(tmp_path, page_size=256) as db:
        readers = []
        for each in (Database(), db):
            each.load_table("t", [("k", "int"), ("v", "int")],
                            [(i, i) for i in range(100)])
            readers.append(SnapshotManager(each).reader())
        on_mem, on_disk = readers
        for statement in script:
            assert on_mem.execute(statement) == on_disk.execute(statement)
        assert not on_disk.catalog.table("t").on_pages
        query = "SELECT * FROM t ORDER BY k"
        assert on_mem.query(query) == on_disk.query(query)
        assert db.query("SELECT count(*), sum(v) FROM t") == [(100, 4950)]


# ----------------------------------------------------------------------
# Page liveness across versions
# ----------------------------------------------------------------------
def _pinned_t(path):
    """A store whose pool holds two pages, so every read goes to the
    data file, over ``t(k, v)`` with ``sum(v)`` = 19,900."""
    db = _disk_db(path, pool_pages=2, page_size=256)
    db.load_table("t", [("k", "int"), ("v", "int")],
                  [(i, i) for i in range(200)])
    return db


def test_snapshot_reader_reads_its_version_after_a_checkpoint(tmp_path):
    """A checkpoint frees only pages no live version names: the
    version a snapshot reader pins keeps its pages, so the writes after
    the checkpoint cannot reuse them under the reader."""
    from repro.service import QueryService

    with _pinned_t(tmp_path) as db, QueryService(db, workers=1) as svc:
        reader = svc.snapshots.reader(svc.snapshot())
        db.execute("UPDATE t SET v = v + 1 WHERE k < 50")
        db.checkpoint()
        db.execute("UPDATE t SET v = v + 1")
        assert reader.query("SELECT sum(v) FROM t") == [(19900,)]
        assert db.query("SELECT sum(v) FROM t") == [(20150,)]


def test_savepoint_rollback_reads_its_version_after_a_checkpoint(
        tmp_path):
    with _pinned_t(tmp_path) as db:
        db.execute("UPDATE t SET v = v + 10 WHERE k < 145")
        savepoint = db.catalog.savepoint()
        db.execute("UPDATE t SET v = v + 1 WHERE k < 50")
        db.checkpoint()
        db.execute("UPDATE t SET v = v + 1")
        db.catalog.rollback(savepoint)
        assert db.query("SELECT sum(v) FROM t") == [(21350,)]
    with _disk_db(tmp_path, pool_pages=2, page_size=256) as db:
        assert db.query("SELECT sum(v) FROM t") == [(21350,)]


# ----------------------------------------------------------------------
# The commit step: one record of what changed
# ----------------------------------------------------------------------
BY_STATE = ("CREATE MATERIALIZED VIEW by_state AS "
            "SELECT state, sum(salesamt) FROM sales GROUP BY state")


def test_drop_table_logs_its_cascade_in_one_record(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.execute("CREATE INDEX sales_rid ON sales (rid)")
        db.execute(BY_STATE)
        db.checkpoint()
        db.execute("DROP TABLE sales")
        assert db.storage_engine.wal.replay() == [{
            "seq": 1, "tables": {"sales": None},
            "indexes": {"sales_rid": None},
            "matviews": {"by_state": None}}]


def test_a_publish_that_changes_nothing_writes_no_record(tmp_path,
                                                         monkeypatch):
    """REFRESH, a rollback to the durable state and recovery's own
    publish log nothing; an UPDATE logs one record naming one table."""
    from repro.storage.wal import WriteAheadLog

    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.execute(BY_STATE)
        db.checkpoint()
        wal = db.storage_engine.wal
        savepoint = db.catalog.savepoint()
        db.execute("REFRESH MATERIALIZED VIEW by_state")
        db.execute("DELETE FROM sales WHERE rid = 1")
        db.catalog.rollback(savepoint)
        db.execute("REFRESH MATERIALIZED VIEW by_state")
        [delete, rollback] = wal.replay()
        assert set(delete) == set(rollback) == {"seq", "tables"}
        assert rollback["tables"]["sales"]["pages"] == \
            savepoint.tables["sales"].page_map()
        db.storage_engine.abandon()
    appended = []
    append = WriteAheadLog.append
    monkeypatch.setattr(WriteAheadLog, "append",
                        lambda self, record, **kw: (
                            appended.append(record),
                            append(self, record, **kw))[1])
    with _disk_db(tmp_path) as db:
        assert appended == []
        assert db.catalog.has_matview("by_state")
        assert db.query("SELECT count(*) FROM sales") == \
            [(len(PAPER_SALES_ROWS),)]
