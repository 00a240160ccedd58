"""Integration-grade unit tests for SELECT execution through the full
parser -> planner -> executor pipeline."""

import pytest

from repro import Database
from repro.errors import PlanningError, TypeMismatchError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INT, b VARCHAR, c REAL)")
    database.execute(
        "INSERT INTO t VALUES (1, 'x', 10.0), (2, 'y', 20.0), "
        "(1, 'y', 30.0), (3, NULL, NULL)")
    return database


class TestProjection:
    def test_select_star(self, db):
        assert len(db.query("SELECT * FROM t")) == 4

    def test_expression_projection(self, db):
        rows = db.query("SELECT a * 2 + 1 FROM t ORDER BY 1")
        assert rows == [(3,), (3,), (5,), (7,)]

    def test_aliases_name_output(self, db):
        result = db.execute("SELECT a AS alpha FROM t")
        assert result.column_names() == ["alpha"]

    def test_where_filter(self, db):
        rows = db.query("SELECT a FROM t WHERE b = 'y' ORDER BY 1")
        assert rows == [(1,), (2,)]

    def test_where_null_comparison_filters_out(self, db):
        # b = NULL is never true; the NULL row must not appear.
        assert db.query("SELECT a FROM t WHERE b <> 'zzz'") != []
        assert (3,) not in db.query("SELECT a FROM t WHERE b <> 'zzz'")

    def test_select_without_from(self, db):
        assert db.query("SELECT 1 + 1") == [(2,)]

    def test_duplicate_output_names_deduped(self, db):
        result = db.execute("SELECT a, a FROM t")
        assert result.column_names() == ["a", "a_1"]


class TestDistinctOrderLimit:
    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT a FROM t ORDER BY a")
        assert rows == [(1,), (2,), (3,)]

    def test_distinct_multi_column(self, db):
        rows = db.query("SELECT DISTINCT a, b FROM t")
        assert len(rows) == 4

    def test_order_desc(self, db):
        rows = db.query("SELECT a FROM t ORDER BY a DESC, c")
        assert [r[0] for r in rows] == [3, 2, 1, 1]

    def test_order_by_position(self, db):
        rows = db.query("SELECT c FROM t ORDER BY 1")
        assert rows[0] == (None,)  # engine sorts NULLs first

    @pytest.mark.parametrize("key", ["TRUE", "FALSE", "TRUE DESC"])
    def test_order_by_boolean_literal_is_a_constant_key(self, db, key):
        # Not a position: TRUE would sort by column 1 and FALSE would
        # be "position 0".  A constant key keeps the input order.
        unordered = db.query("SELECT a, b FROM t")
        assert db.query(f"SELECT a, b FROM t ORDER BY {key}") == unordered
        assert db.query(f"SELECT a, b FROM t ORDER BY {key}, a DESC") \
            == sorted(unordered, key=lambda row: -row[0])

    def test_limit(self, db):
        assert len(db.query("SELECT a FROM t ORDER BY a LIMIT 2")) == 2


class TestAggregation:
    def test_group_by(self, db):
        rows = db.query(
            "SELECT a, sum(c) FROM t GROUP BY a ORDER BY a")
        assert rows == [(1, 40.0), (2, 20.0), (3, None)]

    def test_group_by_position(self, db):
        rows = db.query("SELECT a, count(*) FROM t GROUP BY 1 "
                        "ORDER BY 1")
        assert rows == [(1, 2), (2, 1), (3, 1)]

    def test_global_aggregate(self, db):
        assert db.query("SELECT count(*), sum(a) FROM t") == [(4, 7)]

    def test_global_aggregate_on_empty_table(self, db):
        db.execute("CREATE TABLE e (x INT)")
        assert db.query("SELECT count(*), sum(x) FROM e") == [(0, None)]

    def test_group_by_empty_table_yields_no_rows(self, db):
        db.execute("CREATE TABLE e (x INT, y INT)")
        assert db.query("SELECT x, sum(y) FROM e GROUP BY x") == []

    def test_aggregate_expression(self, db):
        rows = db.query("SELECT a, sum(c) / count(c) FROM t "
                        "WHERE c IS NOT NULL GROUP BY a ORDER BY a")
        assert rows == [(1, 20.0), (2, 20.0)]

    def test_having(self, db):
        rows = db.query("SELECT a, count(*) FROM t GROUP BY a "
                        "HAVING count(*) > 1")
        assert rows == [(1, 2)]

    def test_ungrouped_column_raises(self, db):
        with pytest.raises(PlanningError):
            db.query("SELECT b, sum(c) FROM t GROUP BY a")

    def test_qualified_and_bare_group_refs_unify(self, db):
        rows = db.query("SELECT t.a, sum(c) FROM t GROUP BY a "
                        "ORDER BY 1")
        assert len(rows) == 3

    def test_duplicate_aggregates_computed_once(self, db):
        rows = db.query("SELECT sum(c), sum(c) FROM t")
        assert rows == [(60.0, 60.0)]

    def test_count_distinct(self, db):
        assert db.query("SELECT count(DISTINCT a) FROM t") == [(3,)]

    def test_expression_keys_match_by_value(self, db):
        """A GROUP BY key that is an expression stands for every
        subtree equal to it -- same tree, literals of the same value
        and type, the same columns however spelled -- outermost first,
        and a column outside it must still be grouped."""
        rows = db.query("SELECT (t.a + 1) * 2, A + 1, sum(c) FROM t "
                        "GROUP BY a + 1, (a + 1) * 2 ORDER BY 2")
        assert rows == [(4, 2, 40.0), (6, 3, 20.0), (8, 4, None)]
        assert db.query("SELECT a * 1.0, count(*) FROM t "
                        "GROUP BY a * 1.0 ORDER BY 1")[0] == (1.0, 2)
        for sql in ("SELECT a * 1, count(*) FROM t GROUP BY a * 1.0",
                    "SELECT a + 2, count(*) FROM t GROUP BY a + 1"):
            with pytest.raises(PlanningError, match="must appear"):
                db.query(sql)


class TestJoins:
    @pytest.fixture
    def joined(self, db):
        db.execute("CREATE TABLE d (a INT, label VARCHAR)")
        db.execute("INSERT INTO d VALUES (1, 'one'), (2, 'two')")
        return db

    def test_comma_join_with_where(self, joined):
        rows = joined.query(
            "SELECT t.a, d.label FROM t, d WHERE t.a = d.a "
            "ORDER BY t.a, d.label")
        assert rows == [(1, "one"), (1, "one"), (2, "two")]

    def test_explicit_inner_join(self, joined):
        rows = joined.query(
            "SELECT t.a, d.label FROM t JOIN d ON t.a = d.a "
            "ORDER BY 1, 2")
        assert len(rows) == 3

    def test_left_outer_join(self, joined):
        rows = joined.query(
            "SELECT t.a, d.label FROM t LEFT OUTER JOIN d "
            "ON t.a = d.a ORDER BY 1")
        assert (3, None) in rows

    def test_join_extra_predicate(self, joined):
        rows = joined.query(
            "SELECT t.a FROM t, d WHERE t.a = d.a AND t.c > 15 "
            "ORDER BY 1")
        assert rows == [(1,), (2,)]

    def test_cartesian_product(self, joined):
        rows = joined.query("SELECT t.a, d.a FROM t, d")
        assert len(rows) == 8

    def test_derived_table(self, db):
        rows = db.query(
            "SELECT q.a, q.total FROM "
            "(SELECT a, sum(c) AS total FROM t GROUP BY a) q "
            "WHERE q.total > 25 ORDER BY 1")
        assert rows == [(1, 40.0)]

    def test_self_join_with_aliases(self, db):
        rows = db.query(
            "SELECT x.a, y.a FROM t x, t y "
            "WHERE x.a = y.a AND x.b = 'x' AND y.b = 'y'")
        assert rows == [(1, 1)]

    @pytest.mark.parametrize("keys", [(1, 2, 3), (1, 2)])
    def test_joins_that_keep_rows_in_place(self, db, keys):
        """A chain of 1:1 joins in key order (the partitions of a wide
        Hpct result) leaves rows where they stand; one that drops the
        trailing rows still drops them from every table."""
        for name in ("p", "q", "r"):
            db.execute(f"CREATE TABLE {name} (k INT, v INT)")
        db.execute("INSERT INTO p VALUES (1, 10), (2, 20), (3, 30)")
        db.execute("INSERT INTO q VALUES (1, 100), (2, 200), (3, 300)")
        db.execute("INSERT INTO r VALUES " + ", ".join(
            f"({k}, {k * 1000})" for k in keys))
        rows = db.query("SELECT p.k, p.v, q.v, r.v FROM p, q, r "
                        "WHERE p.k = q.k AND q.k = r.k")
        assert rows == [(k, 10 * k, 100 * k, 1000 * k) for k in keys]


class TestWindowQueries:
    def test_window_over_detail(self, db):
        rows = db.query(
            "SELECT a, c / sum(c) OVER (PARTITION BY a) FROM t "
            "WHERE c IS NOT NULL ORDER BY a, c")
        assert rows[0] == (1, 0.25)
        assert rows[1] == (1, 0.75)

    def test_window_over_aggregate(self, db):
        rows = db.query(
            "SELECT a, sum(c) / sum(sum(c)) OVER () FROM t "
            "WHERE c IS NOT NULL GROUP BY a ORDER BY a")
        assert [round(r[1], 4) for r in rows] == [0.6667, 0.3333]

    def test_distinct_window_percentage(self, db):
        rows = db.query(
            "SELECT DISTINCT a, sum(c) OVER (PARTITION BY a) "
            "/ sum(c) OVER () FROM t WHERE c IS NOT NULL ORDER BY a")
        assert len(rows) == 2


class TestErrors:
    def test_extended_syntax_rejected_by_engine(self, db):
        with pytest.raises(PlanningError) as err:
            db.query("SELECT a, Vpct(c BY a) FROM t GROUP BY a")
        assert "repro.core" in str(err.value)

    def test_unknown_table(self, db):
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM ghost")

    def test_unknown_column(self, db):
        with pytest.raises(PlanningError):
            db.query("SELECT ghost FROM t")

    def test_failing_items_of_one_shape_charge_as_if_alone(self, db):
        # The two items share a shape and both raise.  The statement
        # must raise, and charge, what its first item alone does: its
        # CASE over the 3 groups, then the type error.
        before = db.stats.case_evaluations
        with pytest.raises(TypeMismatchError):
            db.query("SELECT a, CASE WHEN sum(c) > 15 THEN 1 ELSE 0 END "
                     "+ 'x', CASE WHEN max(c) > 15 THEN 1 ELSE 0 END "
                     "+ 'x' FROM t GROUP BY a")
        assert db.stats.case_evaluations - before == 3

    def test_having_without_group(self, db):
        with pytest.raises(PlanningError):
            db.query("SELECT a FROM t HAVING a > 1")
