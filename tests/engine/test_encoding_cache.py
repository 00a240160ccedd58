"""The table-versioned dictionary-encoding cache: correctness of the
invalidation discipline, LRU bounding, and the ablation toggle."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database
from repro.engine.column import ColumnData
from repro.engine.encoding_cache import EncodingCache
from repro.engine.groupby import encode_column
from repro.engine.types import SQLType


def _make_column(values, nulls=None):
    arr = np.asarray(values, dtype=np.int64)
    mask = np.zeros(len(arr), dtype=bool) if nulls is None \
        else np.asarray(nulls, dtype=bool)
    return ColumnData(SQLType.INTEGER, arr, mask)


# ----------------------------------------------------------------------
# Unit: the cache container itself
# ----------------------------------------------------------------------
class TestEncodingCacheUnit:
    def test_miss_then_hit(self):
        cache = EncodingCache()
        col = _make_column([3, 1, 3])
        col.cache_token = ("t", 1, "a")
        first = encode_column(col, cache)
        second = encode_column(col, cache)
        assert second is first           # served the same object
        assert cache.hits == 1 and cache.misses == 1

    def test_untokenized_columns_bypass(self):
        cache = EncodingCache()
        col = _make_column([1, 2])        # intermediate: no token
        encode_column(col, cache)
        encode_column(col, cache)
        assert cache.hits == 0 and cache.misses == 0
        assert cache.entry_count == 0

    def test_disabled_cache_is_inert(self):
        cache = EncodingCache()
        cache.enabled = False
        col = _make_column([1, 2])
        col.cache_token = ("t", 1, "a")
        encode_column(col, cache)
        encode_column(col, cache)
        assert cache.entry_count == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_lru_eviction_under_byte_budget(self):
        col = _make_column(list(range(100)))
        col.cache_token = ("t", 1, "a")
        one_entry = EncodingCache()
        encoded = encode_column(col, one_entry)
        entry_bytes = one_entry.payload_bytes
        assert entry_bytes > 0

        # Budget for exactly two entries: inserting a third evicts the
        # least recently used one.
        cache = EncodingCache(max_bytes=2 * entry_bytes)
        for name in ("a", "b", "c"):
            fresh = _make_column(list(range(100)))
            fresh.cache_token = ("t", 1, name)
            encode_column(fresh, cache)
        assert cache.entry_count == 2
        assert cache.evictions == 1
        assert cache.tokens() == [("t", 1, "b"), ("t", 1, "c")]

        # A hit refreshes recency: touch "b", insert "d", "c" goes.
        touch = _make_column(list(range(100)))
        touch.cache_token = ("t", 1, "b")
        encode_column(touch, cache)
        newest = _make_column(list(range(100)))
        newest.cache_token = ("t", 1, "d")
        encode_column(newest, cache)
        assert cache.tokens() == [("t", 1, "b"), ("t", 1, "d")]
        _ = encoded  # keep the reference alive for the size probe

    def test_oversized_payload_skipped(self):
        cache = EncodingCache(max_bytes=8)
        col = _make_column(list(range(100)))
        col.cache_token = ("t", 1, "a")
        encode_column(col, cache)
        assert cache.entry_count == 0
        assert cache.evictions == 0

    def test_invalidate_table_frees_bytes(self):
        cache = EncodingCache()
        for table, name in (("t", "a"), ("t", "b"), ("u", "a")):
            col = _make_column([1, 2, 3])
            col.cache_token = (table, 1, name)
            encode_column(col, cache)
        cache.invalidate_table("T")
        assert cache.tokens() == [("u", 1, "a")]
        assert cache.payload_bytes > 0
        cache.invalidate_table("u")
        assert cache.payload_bytes == 0

    def test_thread_safety_smoke(self):
        cache = EncodingCache(max_bytes=4096)
        errors = []

        def worker(seed: int) -> None:
            try:
                rng = np.random.default_rng(seed)
                for i in range(50):
                    col = _make_column(rng.integers(0, 10, size=20))
                    col.cache_token = ("t", seed, f"c{i % 5}")
                    encode_column(col, cache)
                    if i % 17 == 0:
                        cache.invalidate_table("t")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.payload_bytes <= cache.max_bytes


# ----------------------------------------------------------------------
# Integration: DML invalidation through the Database facade
# ----------------------------------------------------------------------
@pytest.fixture
def versioned_db():
    db = Database()
    db.load_table("f", [("k", "varchar"), ("a", "int")],
                  [("x", 1), ("y", 2), ("x", 3)])
    return db


def _grouped(db):
    return sorted(db.query("SELECT k, sum(a) FROM f GROUP BY k"))


class TestSelectItemsKeepTokens:
    """A bare column in a select list is the base column itself, so the
    DISTINCT / ORDER BY over it is served by the cache."""

    def test_bare_column_item_keeps_its_cache_token(self, versioned_db):
        db = versioned_db
        result = db.execute("SELECT k, a, a + 1 FROM f")
        base = db.table("f")
        for name in ("k", "a"):
            assert result.column(name).cache_token is not None
            assert result.column(name).cache_token \
                == base.column(name).cache_token
        assert result.column("col3").cache_token is None

    def test_repeated_distinct_hits_the_cache_for_both_columns(
            self, versioned_db):
        db = versioned_db
        cache = db.catalog.encoding_cache
        sql = "SELECT DISTINCT k, a FROM f"
        db.query(sql)
        hits, misses = cache.hits, cache.misses
        assert sorted(db.query(sql)) == [("x", 1), ("x", 3), ("y", 2)]
        assert (cache.hits - hits, cache.misses - misses) == (2, 0)


class TestDMLInvalidation:
    def test_warm_cache_serves_repeat_queries(self, versioned_db):
        db = versioned_db
        _grouped(db)
        before = db.catalog.encoding_cache.hits
        _grouped(db)
        assert db.catalog.encoding_cache.hits > before

    def test_insert_invalidates(self, versioned_db):
        db = versioned_db
        assert _grouped(db) == [("x", 4), ("y", 2)]
        db.execute("INSERT INTO f VALUES ('z', 10)")
        assert _grouped(db) == [("x", 4), ("y", 2), ("z", 10)]
        # Only the new version's tokens remain reachable.
        version = db.table("f").version
        for token in db.catalog.encoding_cache.tokens():
            if token[0] == "f":
                assert token[1] == version

    def test_update_invalidates(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.execute("UPDATE f SET k = 'y' WHERE a = 1")
        assert _grouped(db) == [("x", 3), ("y", 3)]

    def test_delete_invalidates(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.execute("DELETE FROM f WHERE k = 'x'")
        assert _grouped(db) == [("y", 2)]

    def test_drop_and_recreate_never_serves_stale(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.execute("DROP TABLE f")
        assert not any(t[0] == "f"
                       for t in db.catalog.encoding_cache.tokens())
        db.load_table("f", [("k", "varchar"), ("a", "int")],
                      [("q", 7)])
        assert _grouped(db) == [("q", 7)]

    def test_create_or_replace_via_load(self, versioned_db):
        db = versioned_db
        _grouped(db)
        db.load_table("f", [("k", "varchar"), ("a", "int")],
                      [("r", 9)], replace=True)
        assert _grouped(db) == [("r", 9)]

    def test_ablation_toggle(self, versioned_db):
        db = versioned_db
        db.configure(use_encoding_cache=False)
        _grouped(db)
        _grouped(db)
        off_io = db.executor.scopes.last.counters.logical_io()
        assert db.catalog.encoding_cache.hits == 0
        assert db.catalog.encoding_cache.entry_count == 0
        db.configure(use_encoding_cache=True)
        _grouped(db)
        _grouped(db)
        on_io = db.executor.scopes.last.counters.logical_io()
        assert db.catalog.encoding_cache.hits > 0
        # the cache saves encoding work, never a ledger charge
        assert off_io == on_io > 0

    def test_stats_mirror_cache_counters(self, versioned_db):
        db = versioned_db
        _grouped(db)
        _grouped(db)
        assert db.stats.encode_cache_hits == \
            db.catalog.encoding_cache.hits
        assert db.stats.encode_cache_misses == \
            db.catalog.encoding_cache.misses

    def test_info_shape(self, versioned_db):
        db = versioned_db
        _grouped(db)
        info = db.encoding_cache_info()
        assert info["enabled"] is True
        assert info["entries"] > 0
        assert 0.0 <= info["hit_rate"] <= 1.0

    def test_explain_reports_cache_line(self, versioned_db):
        db = versioned_db
        result = db.execute("EXPLAIN SELECT k, sum(a) FROM f GROUP BY k")
        lines = [row[0] for row in result.to_rows()]
        assert lines[-1].startswith("encoding cache:")
