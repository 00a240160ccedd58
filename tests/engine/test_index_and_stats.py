"""Unit tests for the statistics collector."""

import pytest

from repro import Database
from repro.engine.stats import StatementStats, StatsCollector


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
