"""Unit tests for the statistics collector."""

import sys
import threading

import pytest

from repro import Database
from repro.engine.stats import (COUNTER_NAMES, METRIC_NAMES,
                                _SNAPSHOT_NAMES, StatementStats,
                                StatsCollector)


class TestStatsCollector:
    def test_snapshot_diff(self):
        stats = StatsCollector()
        stats.add(rows_scanned=10)
        before = stats.snapshot()
        stats.add(rows_scanned=5, rows_updated=2)
        diff = stats.diff_since(before)
        assert diff.rows_scanned == 5
        assert diff.rows_updated == 2

    def test_logical_io_weights_updates_double(self):
        record = StatementStats(rows_scanned=10, rows_written=5,
                                rows_updated=3)
        assert record.logical_io() == 10 + 5 + 2 * 3

    def test_reset(self):
        stats = StatsCollector()
        stats.add(rows_scanned=5)
        stats.reset()
        assert stats.rows_scanned == 0

    def test_direct_counter_writes_rejected(self):
        # Registry-backed counters: a bare ``stats.counter += n`` was
        # always a lost-update hazard; now it is an explicit error.
        stats = StatsCollector()
        with pytest.raises(AttributeError):
            stats.rows_scanned = 10

    def test_history_recording(self):
        db = Database(keep_history=True)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert len(db.stats.history) == 2
        last = db.stats.history[-1]
        assert last is db.executor.scopes.last.counters
        assert last.rows_written == 1
        assert last.elapsed_seconds >= 0

    def test_scan_accounting(self):
        db = Database(keep_history=True)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        before = db.stats.rows_scanned
        db.query("SELECT * FROM t")
        assert db.stats.rows_scanned - before == 3


#: The ``engine_*_total`` exposition of :func:`_fixed_script`, as the
#: registry rendered it when the ledger still looked its counters up
#: by name on every charge and read.
_ENGINE_EXPOSITION = (
    "# HELP engine_case_evaluations_total WHEN-branch "
    "evaluations charged to CASE expressions\n"
    "# TYPE engine_case_evaluations_total counter\n"
    "engine_case_evaluations_total 6\n"
    "# HELP engine_encode_cache_evictions_total always 0: "
    "encoding memos are never evicted\n"
    "# TYPE engine_encode_cache_evictions_total counter\n"
    "engine_encode_cache_evictions_total 0\n"
    "# HELP engine_encode_cache_hits_total base-table column "
    "encodings served by a memo\n"
    "# TYPE engine_encode_cache_hits_total counter\n"
    "engine_encode_cache_hits_total 2\n"
    "# HELP engine_encode_cache_misses_total base-table column "
    "encodings computed into a memo\n"
    "# TYPE engine_encode_cache_misses_total counter\n"
    "engine_encode_cache_misses_total 2\n"
    "# HELP engine_index_lookups_total always 0: no join probes an index\n"
    "# TYPE engine_index_lookups_total counter\n"
    "engine_index_lookups_total 0\n"
    "# HELP engine_rows_joined_total rows produced by join operators\n"
    "# TYPE engine_rows_joined_total counter\n"
    "engine_rows_joined_total 5\n"
    "# HELP engine_rows_scanned_total rows read by table scans\n"
    "# TYPE engine_rows_scanned_total counter\n"
    "engine_rows_scanned_total 15\n"
    "# HELP engine_rows_updated_total rows rewritten in place by UPDATE\n"
    "# TYPE engine_rows_updated_total counter\n"
    "engine_rows_updated_total 1\n"
    "# HELP engine_rows_written_total rows materialized into "
    "tables (INSERT/CREATE)\n"
    "# TYPE engine_rows_written_total counter\n"
    "engine_rows_written_total 3\n"
    "# HELP engine_statements_total SQL statements executed\n"
    "# TYPE engine_statements_total counter\n"
    "engine_statements_total 6\n"
    "# HELP engine_storage_page_fetches_total pages requested "
    "from the buffer pool\n"
    "# TYPE engine_storage_page_fetches_total counter\n"
    "engine_storage_page_fetches_total 0\n"
    "# HELP engine_storage_page_reads_total page fetches that read from disk\n"
    "# TYPE engine_storage_page_reads_total counter\n"
    "engine_storage_page_reads_total 0\n"
    "# HELP engine_storage_pool_hits_total page fetches served "
    "from the buffer pool\n"
    "# TYPE engine_storage_pool_hits_total counter\n"
    "engine_storage_pool_hits_total 0\n"
)


def _fixed_script(db):
    for sql in [
        "CREATE TABLE t (k INT, g VARCHAR, a REAL)",
        "INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5), (3, 'x', NULL)",
        "SELECT g, sum(a) FROM t GROUP BY g",
        "SELECT g, sum(CASE WHEN k = 1 THEN a END), "
        "sum(CASE WHEN k = 2 THEN a END) FROM t GROUP BY g",
        "UPDATE t SET a = 0 WHERE k = 3",
        "SELECT t.k, u.k FROM t JOIN t u ON t.g = u.g",
    ]:
        db.execute(sql)


class TestHeldLedger:
    """The collector holds its registry counters: charges and reads
    go through the held objects, under one registry lock."""

    def test_snapshot_equals_a_registry_read(self):
        stats = StatsCollector()
        stats.add(**{name: i + 1 for i, name in enumerate(_SNAPSHOT_NAMES)})
        values = stats.registry.read(
            [METRIC_NAMES[name] for name in _SNAPSHOT_NAMES])
        snapshot = stats.snapshot()
        assert snapshot.counters() == {
            name: values[METRIC_NAMES[name]] for name in _SNAPSHOT_NAMES}
        assert snapshot.sql == "" and snapshot.elapsed_seconds == 0.0
        assert stats.diff_since(snapshot) == StatementStats()

    def test_concurrent_snapshots_are_consistent_cuts(self):
        stats = StatsCollector()
        workers, adds = 4, 2000
        start = threading.Barrier(workers + 1)

        def charge():
            start.wait()
            for _ in range(adds):
                stats.add(rows_scanned=1, rows_written=1)

        threads = [threading.Thread(target=charge) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            start.wait(10)
            cuts = []
            while any(thread.is_alive() for thread in threads):
                cuts.append(stats.snapshot())
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(cut.rows_scanned == cut.rows_written for cut in cuts)
        assert stats.rows_scanned == stats.rows_written == workers * adds

    def test_unknown_counter_raises_and_charges_nothing(self):
        stats = StatsCollector()
        with pytest.raises(AttributeError, match="bogus"):
            stats.add(rows_scanned=1, bogus=1)
        with pytest.raises(AttributeError):
            stats.bogus
        assert stats.rows_scanned == 0
        with pytest.raises(ValueError):
            stats.add(rows_scanned=1, rows_written=-1)
        assert stats.rows_scanned == 0

    def test_reset_zeroes_every_counter(self):
        stats = StatsCollector(keep_history=True)
        stats.add(**{name: 3 for name in _SNAPSHOT_NAMES})
        stats.record_statement(stats.snapshot())
        assert all(getattr(stats, name) for name in COUNTER_NAMES)
        stats.reset()
        assert all(getattr(stats, name) == 0 for name in COUNTER_NAMES)
        assert stats.snapshot() == StatementStats() and stats.history == []

    def test_engine_exposition_is_unchanged(self):
        db = Database()
        _fixed_script(db)
        lines = [line for line in db.metrics.render_prometheus()
                 .splitlines(keepends=True)
                 if "engine_" in line and "_total" in line]
        assert "".join(lines) == _ENGINE_EXPOSITION
