"""Encoding memos: a sealed base-table column is encoded once, and a
memo never outlives -- or serves anything but -- its column.  (The
class names date from the table-versioned encoding cache the memos
replaced; each test holds the memo to what it held the cache to.)"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro import Database
from repro.engine import groupby
from repro.engine.column import ColumnData, EncodingMemo
from repro.engine.groupby import encode_column
from repro.engine.stats import StatsCollector
from repro.engine.table import Table
from repro.engine.types import SQLType


def _make_column(values, nulls=None):
    arr = np.asarray(values, dtype=np.int64)
    mask = np.zeros(len(arr), dtype=bool) if nulls is None \
        else np.asarray(nulls, dtype=bool)
    return ColumnData(SQLType.INTEGER, arr, mask)


def _traffic(stats: StatsCollector) -> tuple[int, int]:
    return stats.encode_cache_hits, stats.encode_cache_misses


# ----------------------------------------------------------------------
# Unit: encode_column and the memo
# ----------------------------------------------------------------------
class TestEncodingCacheUnit:
    def test_miss_then_hit(self):
        stats = StatsCollector()
        col = _make_column([3, 1, 3])
        col.memo = EncodingMemo("t")
        first = encode_column(col, stats)
        second = encode_column(col, stats)
        assert second is first           # served the same object
        assert col.memo.encoded is first
        assert _traffic(stats) == (1, 1)

    def test_untokenized_columns_bypass(self):
        stats = StatsCollector()
        col = _make_column([1, 2])        # intermediate: no memo
        assert encode_column(col, stats) is not encode_column(col, stats)
        assert _traffic(stats) == (0, 0)

    def test_disabled_cache_is_inert(self):
        """Without a query's stats (view maintenance) the memo is
        neither read nor filled, and nothing is charged."""
        col = _make_column([1, 2])
        col.memo = EncodingMemo("t")
        encode_column(col)
        encode_column(col)
        assert col.memo.encoded is None

    def test_invalidate_table_frees_bytes(self):
        """An encoding is freed with its column: nothing else holds it."""
        col = _make_column([1, 2, 3])
        col.memo = EncodingMemo("t")
        encoded = weakref.ref(encode_column(col, StatsCollector()))
        gc.disable()
        try:
            assert encoded() is not None
            del col
            assert encoded() is None
        finally:
            gc.enable()

    def test_thread_safety_smoke(self):
        """Workers filling one memo at once, with no lock: every result
        is the column's encoding, and every read is charged once."""
        stats = StatsCollector()
        rng = np.random.default_rng(7)
        columns = [_make_column(rng.integers(0, 10, size=200))
                   for _ in range(5)]
        for i, col in enumerate(columns):
            col.memo = EncodingMemo(f"t{i}")
        errors = []
        results = []

        def worker() -> None:
            try:
                for _ in range(40):
                    for col in columns:
                        results.append((col, encode_column(col, stats)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for col, encoded in results:
            fresh = groupby._encode_values(col)
            np.testing.assert_array_equal(encoded.codes, fresh.codes)
            np.testing.assert_array_equal(encoded.uniques, fresh.uniques)
        assert sum(_traffic(stats)) == len(results) == 8 * 40 * 5


# ----------------------------------------------------------------------
# Integration: sealing and DML through the Database facade
# ----------------------------------------------------------------------
@pytest.fixture
def versioned_db():
    db = Database()
    db.load_table("f", [("k", "varchar"), ("a", "int")],
                  [("x", 1), ("y", 2), ("x", 3)])
    return db


def _grouped(db):
    return sorted(db.query("SELECT k, sum(a) FROM f GROUP BY k"))


def _delta(db, run) -> tuple[int, int]:
    before = _traffic(db.stats)
    run()
    after = _traffic(db.stats)
    return after[0] - before[0], after[1] - before[1]


class TestSelectItemsKeepTokens:
    """A bare column in a select list is the base column itself, so the
    DISTINCT / ORDER BY over it is served by its memo."""

    def test_bare_column_item_keeps_its_cache_token(self, versioned_db):
        db = versioned_db
        result = db.execute("SELECT k, a, a + 1 FROM f")
        base = db.table("f")
        for name in ("k", "a"):
            assert result.column(name).memo is not None
            assert result.column(name).memo is base.column(name).memo
        assert result.column("col3").memo is None

    def test_repeated_distinct_hits_the_cache_for_both_columns(
            self, versioned_db):
        db = versioned_db
        sql = "SELECT DISTINCT k, a FROM f"
        db.query(sql)
        assert _delta(db, lambda: db.query(sql)) == (2, 0)
        assert sorted(db.query(sql)) == [("x", 1), ("x", 3), ("y", 2)]


class TestDMLInvalidation:
    def test_warm_cache_serves_repeat_queries(self, versioned_db):
        db = versioned_db
        _grouped(db)
        assert _delta(db, lambda: _grouped(db)) == (1, 0)

    def test_insert_invalidates(self, versioned_db):
        db = versioned_db
        assert _grouped(db) == [("x", 4), ("y", 2)]
        old = db.table("f").column("k").memo
        db.execute("INSERT INTO f VALUES ('z', 10)")
        assert db.table("f").column("k").memo is not old
        assert _grouped(db) == [("x", 4), ("y", 2), ("z", 10)]

    def test_update_invalidates(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.execute("UPDATE f SET k = 'y' WHERE a = 1")
        assert _grouped(db) == [("x", 3), ("y", 3)]

    def test_update_leaves_untouched_columns_warm(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.execute("UPDATE f SET a = a + 1 WHERE a = 1")
        assert _delta(db, lambda: _grouped(db)) == (1, 0)
        assert _grouped(db) == [("x", 5), ("y", 2)]

    def test_delete_invalidates(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.execute("DELETE FROM f WHERE k = 'x'")
        assert _grouped(db) == [("y", 2)]

    def test_drop_and_recreate_never_serves_stale(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.execute("DROP TABLE f")
        db.load_table("f", [("k", "varchar"), ("a", "int")],
                      [("q", 7)])
        assert _grouped(db) == [("q", 7)]

    def test_create_or_replace_via_load(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.load_table("f", [("k", "varchar"), ("a", "int")],
                      [("r", 9)], replace=True)
        assert _grouped(db) == [("r", 9)]

    def test_savepoint_rollback_restores_the_warm_memo(self, versioned_db):
        db = versioned_db
        _grouped(db)
        savepoint = db.catalog.savepoint()
        db.execute("INSERT INTO f VALUES ('z', 10)")
        _grouped(db)
        db.catalog.rollback(savepoint)
        assert _delta(db, lambda: _grouped(db)) == (1, 0)
        assert _grouped(db) == [("x", 4), ("y", 2)]

    def test_ablation_toggle(self, monkeypatch):
        """With sealing patched out no column has a memo: the same
        results and logical I/O, and no memo is ever read."""
        def run() -> tuple[Database, list, int]:
            db = Database()
            db.load_table("f", [("k", "varchar"), ("a", "int")],
                          [("x", 1), ("y", 2), ("x", 3)])
            results = [_grouped(db), _grouped(db)]
            return db, results, \
                db.executor.scopes.last.counters.logical_io()

        with monkeypatch.context() as patch:
            patch.setattr(Table, "seal", lambda table: None)
            off_db, off_results, off_io = run()
        on_db, on_results, on_io = run()
        assert _traffic(off_db.stats) == (0, 0)
        assert off_db.table("f").column("k").memo is None
        assert _traffic(on_db.stats) == (1, 1)
        assert off_results == on_results
        # a memo saves encoding work, never a ledger charge
        assert off_io == on_io > 0

    def test_stats_mirror_cache_counters(self, versioned_db):
        """Each miss fills one memo; the statement's own counters and
        the database's agree."""
        db = versioned_db
        _grouped(db)
        _grouped(db)
        table = db.table("f")
        filled = sum(table.column(c.name).memo.encoded is not None
                     for c in table.schema.columns)
        assert filled == 1                  # k, the grouping column
        assert _traffic(db.stats) == (1, filled)
        last = db.executor.scopes.last.counters
        assert (last.encode_cache_hits, last.encode_cache_misses) == (1, 0)

    def test_info_shape(self, versioned_db):
        """The memo traffic is reported by the stats snapshot; nothing
        is ever evicted."""
        db = versioned_db
        _grouped(db)
        _grouped(db)
        snapshot = db.stats.snapshot()
        assert snapshot.encode_cache_hits == 1
        assert snapshot.encode_cache_misses == 1
        assert snapshot.encode_cache_evictions == 0
        counters = snapshot.counters()
        assert {"encode_cache_hits", "encode_cache_misses",
                "encode_cache_evictions"} <= set(counters)

    def test_explain_reports_cache_line(self, versioned_db):
        """EXPLAIN ANALYZE shows the memo read as an ``encoding-cache``
        charge naming the table: a miss first, a hit after."""
        db = versioned_db
        sql = "EXPLAIN ANALYZE SELECT k, sum(a) FROM f GROUP BY k"

        def charges() -> list[str]:
            return [row[0].strip() for row in db.execute(sql).to_rows()
                    if row[0].strip().startswith("encoding-cache")]

        assert charges() == ["encoding-cache encode_cache_misses=1 "
                             "table=f"]
        assert charges() == ["encoding-cache encode_cache_hits=1 "
                             "table=f"]


class TestMemoLifetime:
    def test_derived_table_leaves_its_source_warm(self, versioned_db):
        """``CREATE TABLE g AS SELECT * FROM f`` shares f's columns;
        sealing g must not take them over, so dropping g leaves f's
        encodings where they were."""
        db = versioned_db
        _grouped(db)
        db.execute("CREATE TABLE g AS SELECT * FROM f")
        db.execute("DROP TABLE g")
        assert _delta(db, lambda: _grouped(db)) == (1, 0)

    def test_encoding_dies_with_its_table(self, versioned_db):
        db = versioned_db
        _grouped(db)
        encoded = weakref.ref(db.table("f").column("k").memo.encoded)
        gc.disable()
        try:
            db.execute("DROP TABLE f")
            assert encoded() is None
        finally:
            gc.enable()
