"""Unit tests for hash indexes and the statistics collector."""

import pytest

from repro import Database
from repro.engine.index import HashIndex
from repro.engine.schema import TableSchema
from repro.engine.stats import StatementStats, StatsCollector
from repro.engine.table import Table
from repro.engine.types import SQLType


def make_table():
    schema = TableSchema.build("t", [("a", SQLType.INTEGER),
                                     ("b", SQLType.VARCHAR)])
    return Table.from_rows(schema, [(1, "x"), (2, "y"), (1, "z")])


class TestHashIndex:
    def test_covers_is_order_insensitive(self):
        index = HashIndex("ix", "t", ["a", "b"])
        assert index.covers(["B", "A"])
        assert not index.covers(["a"])

    def test_prepared_side_built(self):
        index = HashIndex("ix", "t", ["a"])
        index.rebuild(make_table())
        assert index.prepared is not None
        assert index.built_rows == 3

    def test_join_uses_index(self):
        db = Database(keep_history=True)
        db.execute("CREATE TABLE big (k INT, v REAL)")
        db.execute("INSERT INTO big VALUES (1, 1.0), (2, 2.0)")
        db.execute("CREATE TABLE small (k INT, t REAL)")
        db.execute("INSERT INTO small VALUES (1, 10.0), (2, 20.0)")
        db.execute("CREATE INDEX ix ON small (k)")
        db.query("SELECT big.k FROM big, small WHERE big.k = small.k")
        assert db.stats.index_lookups > 0

    def test_index_disabled_option(self):
        db = Database(use_indexes=False, keep_history=True)
        db.execute("CREATE TABLE big (k INT)")
        db.execute("INSERT INTO big VALUES (1)")
        db.execute("CREATE TABLE small (k INT)")
        db.execute("INSERT INTO small VALUES (1)")
        db.execute("CREATE INDEX ix ON small (k)")
        db.query("SELECT big.k FROM big, small WHERE big.k = small.k")
        assert db.stats.index_lookups == 0


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
