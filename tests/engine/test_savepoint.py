"""Catalog savepoint/rollback semantics (the atomicity substrate for
multi-statement percentage plans)."""

import gc
import weakref

import pytest

from repro import Database
from repro.errors import CatalogError


@pytest.fixture
def loaded(db):
    db.load_table("f", [("k", "int"), ("v", "real")],
                  [(1, 2.0), (2, 4.0)])
    return db


class TestRollback:
    def test_created_table_removed(self, loaded):
        savepoint = loaded.catalog.savepoint()
        loaded.execute("CREATE TABLE scratch (a INT)")
        loaded.catalog.rollback(savepoint)
        assert not loaded.has_table("scratch")

    def test_dropped_table_restored_identically(self, loaded):
        original = loaded.table("f")
        savepoint = loaded.catalog.savepoint()
        loaded.drop_table("f")
        loaded.catalog.rollback(savepoint)
        # same object, not a copy: immutability makes identity
        # equivalent to byte-identical content
        assert loaded.table("f") is original

    def test_replaced_table_restored(self, loaded):
        original = loaded.table("f")
        savepoint = loaded.catalog.savepoint()
        loaded.execute("INSERT INTO f VALUES (3, 8.0)")
        assert loaded.table("f") is not original
        loaded.catalog.rollback(savepoint)
        assert loaded.table("f") is original
        assert loaded.query("SELECT count(*) FROM f") == [(2,)]

    def test_views_roll_back(self, loaded):
        savepoint = loaded.catalog.savepoint()
        loaded.execute("CREATE VIEW fv AS SELECT k FROM f")
        loaded.catalog.rollback(savepoint)
        assert not loaded.catalog.has_view("fv")

    def test_created_index_removed(self, loaded):
        savepoint = loaded.catalog.savepoint()
        loaded.execute("CREATE INDEX f_k ON f (k)")
        loaded.catalog.rollback(savepoint)
        assert loaded.catalog.index_names() == []

    def test_index_kept_across_rollback_of_dml(self, loaded):
        loaded.execute("CREATE INDEX f_k ON f (k)")
        savepoint = loaded.catalog.savepoint()
        index = savepoint.indexes["f_k"]
        loaded.execute("INSERT INTO f VALUES (3, 8.0)")
        loaded.catalog.rollback(savepoint)
        assert loaded.catalog.snapshot().indexes["f_k"] is index
        assert loaded.query(
            "SELECT v FROM f WHERE k = 3") == []

    def test_dropped_index_restored(self, loaded):
        loaded.execute("CREATE INDEX f_k ON f (k)")
        savepoint = loaded.catalog.savepoint()
        loaded.execute("DROP TABLE f")
        assert loaded.catalog.index_names() == []
        loaded.catalog.rollback(savepoint)
        assert loaded.catalog.index_names() == ["f_k"]

    def test_encoding_cache_entries_invalidated(self, loaded):
        savepoint = loaded.catalog.savepoint()
        loaded.execute("INSERT INTO f VALUES (3, 8.0)")
        # fill the memo of the post-savepoint version
        loaded.query("SELECT k, sum(v) FROM f GROUP BY k")
        encoded = weakref.ref(loaded.table("f").column("k").memo.encoded)
        gc.disable()
        try:
            loaded.catalog.rollback(savepoint)
            assert encoded() is None, \
                "encodings of the replaced table survived rollback"
        finally:
            gc.enable()

    def test_rollback_is_idempotent(self, loaded):
        savepoint = loaded.catalog.savepoint()
        loaded.execute("CREATE TABLE scratch (a INT)")
        loaded.catalog.rollback(savepoint)
        loaded.catalog.rollback(savepoint)
        assert sorted(loaded.table_names()) == ["f"]


class TestFingerprint:
    def test_equal_when_untouched(self, loaded):
        assert loaded.catalog.fingerprint() \
            == loaded.catalog.fingerprint()

    def test_changes_on_create_and_restores_on_rollback(self, loaded):
        savepoint = loaded.catalog.savepoint()
        before = loaded.catalog.fingerprint()
        loaded.execute("CREATE TABLE scratch (a INT)")
        assert loaded.catalog.fingerprint() != before
        loaded.catalog.rollback(savepoint)
        assert loaded.catalog.fingerprint() == before

    def test_changes_on_dml(self, loaded):
        before = loaded.catalog.fingerprint()
        loaded.execute("INSERT INTO f VALUES (3, 8.0)")
        assert loaded.catalog.fingerprint() != before


class TestDropTableDefaults:
    def test_catalog_and_database_agree(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.drop_table("t")
        with pytest.raises(CatalogError):
            db.catalog.drop_table("t")
        with pytest.raises(CatalogError):
            db.drop_table("t")
        db.drop_table("t", if_exists=True)
        db.catalog.drop_table("t", if_exists=True)
