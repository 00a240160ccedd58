"""Unit tests for the Database facade."""

import numpy as np
import pytest

from repro import Database
from repro.engine.types import SQLType
from repro.errors import CatalogError


class TestExecute:
    def test_select_returns_table(self, db):
        db.execute("CREATE TABLE t (a INT)")
        result = db.execute("SELECT * FROM t")
        assert result.n_rows == 0

    def test_dml_returns_count(self, db):
        db.execute("CREATE TABLE t (a INT)")
        assert db.execute("INSERT INTO t VALUES (1), (2)") == 2

    def test_execute_script(self, db):
        results = db.execute_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); "
            "SELECT a FROM t")
        assert results[1] == 1
        assert results[2].to_rows() == [(1,)]

    def test_query_requires_select(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(TypeError):
            db.query("INSERT INTO t VALUES (1)")

    def test_encoding_cache_budget_is_not_a_database_option(self):
        """Nobody set it; a test that needs a small budget hands the
        catalog an ``EncodingCache`` (ROADMAP item 7's option trial)."""
        with pytest.raises(TypeError):
            Database(encoding_cache_bytes=1)


class TestLoadTable:
    def test_bulk_numpy_arrays(self, db):
        table = db.load_table(
            "t", [("a", "int"), ("b", SQLType.REAL)],
            {"a": np.arange(3, dtype=np.int64),
             "b": np.array([0.5, 1.5, 2.5])})
        assert table.n_rows == 3
        assert db.query("SELECT sum(b) FROM t") == [(4.5,)]

    def test_row_iterable(self, db):
        db.load_table("t", [("a", "int")], [(1,), (2,)])
        assert db.query("SELECT count(*) FROM t") == [(2,)]

    def test_case_insensitive_data_keys(self, db):
        db.load_table("t", [("Amount", "real")],
                      {"amount": np.array([1.0])})
        assert db.query("SELECT amount FROM t") == [(1.0,)]

    def test_missing_column_data_raises(self, db):
        with pytest.raises(KeyError):
            db.load_table("t", [("a", "int")], {"b": np.array([1])})

    def test_replace(self, db):
        db.load_table("t", [("a", "int")], [(1,)])
        db.load_table("t", [("a", "int")], [(2,)], replace=True)
        assert db.query("SELECT a FROM t") == [(2,)]

    def test_primary_key_recorded(self, db):
        table = db.load_table("t", [("a", "int")], [(1,)],
                              primary_key=["a"])
        assert table.schema.primary_key == ("a",)


class TestIntrospection:
    def test_table_names(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE u (a INT)")
        assert sorted(db.table_names()) == ["t", "u"]

    def test_has_and_drop(self, db):
        db.execute("CREATE TABLE t (a INT)")
        assert db.has_table("T")
        db.drop_table("t")
        assert not db.has_table("t")
        # Same default as Catalog.drop_table (and SQL DROP TABLE):
        # dropping a missing table is an error unless opted out.
        with pytest.raises(CatalogError):
            db.drop_table("t")
        db.drop_table("t", if_exists=True)


def test_importing_the_engine_does_not_import_multiprocessing():
    """There is no intra-query parallelism (DESIGN.md section 5), so
    nothing on the import path of the service or the database may pull
    in ``multiprocessing`` -- numpy alone does not."""
    import os
    import subprocess
    import sys

    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    probe = ("import sys; import repro.service, repro.api.database; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'multiprocessing'))")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src_dir))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
