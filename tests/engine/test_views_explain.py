"""Unit tests for views (the paper's 'F can be a view') and EXPLAIN."""

import pytest

from repro import Database
from repro.errors import CatalogError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (g INT, d INT, m REAL)")
    database.execute(
        "INSERT INTO t VALUES (1, 1, 10.0), (1, 2, 30.0), "
        "(2, 1, 5.0)")
    return database


class TestViews:
    def test_create_and_select(self, db):
        db.execute("CREATE VIEW v AS SELECT g, sum(m) AS total "
                   "FROM t GROUP BY g")
        rows = db.query("SELECT g, total FROM v ORDER BY g")
        assert rows == [(1, 40.0), (2, 5.0)]

    def test_view_reflects_base_changes(self, db):
        db.execute("CREATE VIEW v AS SELECT sum(m) AS total FROM t")
        assert db.query("SELECT total FROM v") == [(45.0,)]
        db.execute("INSERT INTO t VALUES (3, 1, 5.0)")
        assert db.query("SELECT total FROM v") == [(50.0,)]

    def test_view_joins_with_tables(self, db):
        db.execute("CREATE VIEW v AS SELECT g, sum(m) AS total "
                   "FROM t GROUP BY g")
        rows = db.query("SELECT t.d, v.total FROM t, v "
                        "WHERE t.g = v.g AND t.g = 2")
        assert rows == [(1, 5.0)]

    def test_percentage_query_over_view(self, db):
        from repro.core import run_percentage_query
        db.execute("CREATE VIEW v AS SELECT g, d, m FROM t "
                   "WHERE m > 6")
        result = run_percentage_query(
            db, "SELECT g, Vpct(m) FROM v GROUP BY g")
        assert result.to_rows() == [(1, 1.0)]

    def test_name_collisions(self, db):
        db.execute("CREATE VIEW v AS SELECT g FROM t")
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW v AS SELECT g FROM t")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE v (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW t AS SELECT g FROM t")

    def test_drop_view(self, db):
        db.execute("CREATE VIEW v AS SELECT g FROM t")
        db.execute("DROP VIEW v")
        assert not db.catalog.has_view("v")
        db.execute("DROP VIEW IF EXISTS v")
        with pytest.raises(CatalogError):
            db.execute("DROP VIEW v")


class TestExplain:
    def plan_text(self, db, sql):
        result = db.execute(f"EXPLAIN {sql}")
        return "\n".join(row[0] for row in result.to_rows())

    def test_scan(self, db):
        text = self.plan_text(db, "SELECT g FROM t")
        assert "scan t (3 rows)" in text

    def test_filter_and_aggregate(self, db):
        text = self.plan_text(
            db, "SELECT g, sum(m) FROM t WHERE d = 1 GROUP BY g")
        assert "aggregate group by g" in text
        assert "filter" in text

    def test_join_onto_an_indexed_table(self, db):
        db.execute("CREATE TABLE s (g INT, label VARCHAR)")
        db.execute("CREATE INDEX ix ON s (g)")
        text = self.plan_text(
            db, "SELECT t.m FROM t, s WHERE t.g = s.g")
        assert "hash join s on t.g = s.g\n" in text + "\n"
        assert "index" not in text

    def test_left_join(self, db):
        db.execute("CREATE TABLE s (g INT)")
        text = self.plan_text(
            db, "SELECT t.m FROM t LEFT OUTER JOIN s ON t.g = s.g")
        assert "left outer join s" in text

    def test_order_distinct_limit(self, db):
        text = self.plan_text(
            db, "SELECT DISTINCT g FROM t ORDER BY g DESC LIMIT 1")
        assert text.splitlines()[0] == "limit 1"
        assert "sort by g DESC" in text
        assert "distinct" in text

    def test_explain_dml(self, db):
        text = self.plan_text(db, "DELETE FROM t WHERE g = 1")
        assert "delete from t" in text

    def test_explain_view_scan(self, db):
        db.execute("CREATE VIEW v AS SELECT g FROM t")
        text = self.plan_text(db, "SELECT g FROM v")
        assert "view scan v" in text
