"""Unit tests for DDL/DML execution: CREATE/DROP/INSERT/UPDATE/DELETE,
including the join-update form the paper's UPDATE strategy uses."""

import pytest

from repro import Database
from repro.errors import (CatalogError, ExecutionError, PlanningError,
                          TypeMismatchError)


@pytest.fixture
def db():
    return Database(keep_history=True)


class TestCreateDrop:
    def test_create_table(self, db):
        db.execute("CREATE TABLE t (a INT, b VARCHAR, "
                   "PRIMARY KEY (a))")
        assert db.table("t").schema.primary_key == ("a",)

    def test_trailing_primary_key_teradata_style(self, db):
        db.execute("CREATE TABLE t (a INT, b REAL) PRIMARY KEY (a)")
        assert db.table("t").schema.primary_key == ("a",)

    def test_if_not_exists(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INT)")

    def test_create_table_as(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        count = db.execute("CREATE TABLE u AS SELECT a * 10 AS a10 "
                           "FROM t")
        assert count == 2
        assert db.query("SELECT a10 FROM u ORDER BY 1") == \
            [(10,), (20,)]

    def test_drop(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("DROP TABLE t")
        assert not db.has_table("t")
        db.execute("DROP TABLE IF EXISTS t")

    def test_create_index_statement(self, db):
        db.execute("CREATE TABLE t (a INT)")
        assert db.execute("CREATE INDEX ix ON t (a)") == 0
        assert db.catalog.index_names() == ["ix"]
        db.execute("DROP INDEX ix")
        assert db.catalog.index_names() == []


class TestInsert:
    def test_insert_values_multi_row(self, db):
        db.execute("CREATE TABLE t (a INT, b VARCHAR)")
        count = db.execute(
            "INSERT INTO t VALUES (1, 'x'), (2, NULL)")
        assert count == 2
        assert db.query("SELECT * FROM t ORDER BY a") == \
            [(1, "x"), (2, None)]

    def test_insert_coerces_int_to_real(self, db):
        db.execute("CREATE TABLE t (a REAL)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.query("SELECT a FROM t") == [(1.0,)]

    def test_insert_wrong_arity_raises(self, db):
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(PlanningError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_insert_select(self, db):
        db.execute("CREATE TABLE src (a INT)")
        db.execute("INSERT INTO src VALUES (1), (2), (3)")
        db.execute("CREATE TABLE dst (a INT, doubled INT)")
        count = db.execute(
            "INSERT INTO dst SELECT a, a * 2 FROM src WHERE a > 1")
        assert count == 2
        assert db.query("SELECT * FROM dst ORDER BY a") == \
            [(2, 4), (3, 6)]

    def test_insert_select_arity_mismatch(self, db):
        db.execute("CREATE TABLE src (a INT)")
        db.execute("CREATE TABLE dst (a INT, b INT)")
        with pytest.raises(PlanningError):
            db.execute("INSERT INTO dst SELECT a FROM src")

    def test_insert_select_incompatible_type(self, db):
        db.execute("CREATE TABLE src (a VARCHAR)")
        db.execute("INSERT INTO src VALUES ('x')")
        db.execute("CREATE TABLE dst (a INT)")
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO dst SELECT a FROM src")


class TestUpdate:
    def test_plain_update(self, db):
        db.execute("CREATE TABLE t (a INT, b REAL)")
        db.execute("INSERT INTO t VALUES (1, 10.0), (2, 20.0)")
        count = db.execute("UPDATE t SET b = b * 2 WHERE a = 1")
        assert count == 1
        assert db.query("SELECT b FROM t ORDER BY a") == \
            [(20.0,), (20.0,)]

    def test_update_all_rows(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        assert db.execute("UPDATE t SET a = 0") == 2

    def test_join_update(self, db):
        db.execute("CREATE TABLE fk (d INT, a REAL)")
        db.execute("INSERT INTO fk VALUES (1, 10.0), (1, 30.0), "
                   "(2, 5.0)")
        db.execute("CREATE TABLE fj (d INT, total REAL)")
        db.execute("INSERT INTO fj VALUES (1, 40.0), (2, 5.0)")
        count = db.execute(
            "UPDATE fk SET a = CASE WHEN fj.total <> 0 THEN "
            "fk.a / fj.total ELSE NULL END FROM fj "
            "WHERE fk.d = fj.d")
        assert count == 3
        assert db.query("SELECT a FROM fk ORDER BY a") == \
            [(0.25,), (0.75,), (1.0,)]

    def test_join_update_unmatched_rows_keep_value(self, db):
        db.execute("CREATE TABLE fk (d INT, a REAL)")
        db.execute("INSERT INTO fk VALUES (1, 10.0), (9, 99.0)")
        db.execute("CREATE TABLE fj (d INT, total REAL)")
        db.execute("INSERT INTO fj VALUES (1, 10.0)")
        count = db.execute("UPDATE fk SET a = fk.a / fj.total "
                           "FROM fj WHERE fk.d = fj.d")
        assert count == 1
        assert db.query("SELECT a FROM fk ORDER BY d") == \
            [(1.0,), (99.0,)]

    def test_join_update_multiple_matches_raises(self, db):
        db.execute("CREATE TABLE fk (d INT, a REAL)")
        db.execute("INSERT INTO fk VALUES (1, 10.0)")
        db.execute("CREATE TABLE fj (d INT, total REAL)")
        db.execute("INSERT INTO fj VALUES (1, 1.0), (1, 2.0)")
        with pytest.raises(ExecutionError):
            db.execute("UPDATE fk SET a = fj.total FROM fj "
                       "WHERE fk.d = fj.d")

    def test_join_update_requires_equality_keys(self, db):
        db.execute("CREATE TABLE fk (d INT)")
        db.execute("CREATE TABLE fj (d INT)")
        with pytest.raises(PlanningError):
            db.execute("UPDATE fk SET d = fj.d FROM fj "
                       "WHERE fk.d > fj.d")

    def test_update_charges_rows_updated(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        before = db.stats.rows_updated
        db.execute("UPDATE t SET a = a WHERE a > 1")
        assert db.stats.rows_updated - before == 2


class TestDelete:
    def test_delete_where(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert db.execute("DELETE FROM t WHERE a > 1") == 2
        assert db.query("SELECT a FROM t") == [(1,)]

    def test_delete_all(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        assert db.execute("DELETE FROM t") == 2
        assert db.query("SELECT a FROM t") == []
