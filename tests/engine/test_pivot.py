"""Unit tests for the hash-dispatch CASE optimization (the paper's
proposed O(1)-per-row evaluation of disjoint pivot aggregations)."""

import pytest

from repro import Database

PIVOT_SQL = """
SELECT g,
  sum(CASE WHEN d = 1 THEN a ELSE null END) AS c1,
  sum(CASE WHEN d = 2 THEN a ELSE null END) AS c2,
  sum(CASE WHEN d = 3 THEN a ELSE null END) AS c3
FROM t GROUP BY g ORDER BY g
"""

PIVOT_ZERO_SQL = PIVOT_SQL.replace("ELSE null", "ELSE 0")


@pytest.fixture
def pair():
    """Two identical databases, one linear and one hash dispatch."""
    databases = (Database(case_dispatch="linear"),
                 Database(case_dispatch="hash"))
    for db in databases:
        db.execute("CREATE TABLE t (g INT, d INT, a REAL)")
        db.execute(
            "INSERT INTO t VALUES (1, 1, 10.0), (1, 1, 5.0), "
            "(1, 2, 2.0), (2, 2, 7.0), (2, 3, NULL), (3, 1, 1.0)")
    return databases


class TestEquivalence:
    def test_else_null(self, pair):
        linear, hashed = pair
        assert linear.query(PIVOT_SQL) == hashed.query(PIVOT_SQL)

    def test_else_zero(self, pair):
        linear, hashed = pair
        assert linear.query(PIVOT_ZERO_SQL) == \
            hashed.query(PIVOT_ZERO_SQL)

    def test_expected_values(self, pair):
        _, hashed = pair
        rows = hashed.query(PIVOT_SQL)
        assert rows == [(1, 15.0, 2.0, None),
                        (2, None, 7.0, None),
                        (3, 1.0, None, None)]

    def test_all_null_cell_with_else_zero(self, pair):
        # Group 2 / d=3 has only a NULL measure: linear CASE sums the
        # zeros of non-matching rows, so the result is 0 -- the hash
        # path must agree.
        linear, hashed = pair
        rows_linear = linear.query(PIVOT_ZERO_SQL)
        rows_hashed = hashed.query(PIVOT_ZERO_SQL)
        assert rows_linear[1][3] == 0.0
        assert rows_linear == rows_hashed

    def test_multi_column_conjunction(self, pair):
        linear, hashed = pair
        sql = """
        SELECT sum(CASE WHEN g = 1 AND d = 1 THEN a ELSE null END),
               sum(CASE WHEN g = 1 AND d = 2 THEN a ELSE null END)
        FROM t
        """
        assert linear.query(sql) == hashed.query(sql) == [(15.0, 2.0)]

    def test_count_min_max_families(self, pair):
        linear, hashed = pair
        sql = """
        SELECT g,
          count(CASE WHEN d = 1 THEN a ELSE null END),
          count(CASE WHEN d = 2 THEN a ELSE null END)
        FROM t GROUP BY g ORDER BY g
        """
        assert linear.query(sql) == hashed.query(sql)


class TestCostAccounting:
    def test_hash_dispatch_charges_one_probe_per_row(self, pair):
        linear, hashed = pair
        linear.query(PIVOT_SQL)
        hashed.query(PIVOT_SQL)
        n = 6
        # Linear: 3 CASE terms x 1 WHEN x n rows; hash: n probes.
        assert linear.stats.case_evaluations >= 3 * n
        assert hashed.stats.case_evaluations < linear. \
            stats.case_evaluations

    def test_single_term_stays_linear(self):
        db = Database(case_dispatch="hash", keep_history=True)
        db.execute("CREATE TABLE t (g INT, d INT, a REAL)")
        db.execute("INSERT INTO t VALUES (1, 1, 1.0)")
        rows = db.query("SELECT g, sum(CASE WHEN d = 1 THEN a "
                        "ELSE null END) FROM t GROUP BY g")
        assert rows == [(1, 1.0)]


class TestNonPivotShapesFallThrough:
    """Shapes outside the disjoint-pivot pattern must still be correct
    under hash dispatch (they take the linear path)."""

    @pytest.mark.parametrize("sql", [
        # two WHENs in one CASE
        "SELECT sum(CASE WHEN d = 1 THEN a WHEN d = 2 THEN a END) "
        "FROM t",
        # non-equality condition
        "SELECT sum(CASE WHEN d > 1 THEN a END), "
        "sum(CASE WHEN d > 2 THEN a END) FROM t",
        # non-zero ELSE
        "SELECT sum(CASE WHEN d = 1 THEN a ELSE 1 END), "
        "sum(CASE WHEN d = 2 THEN a ELSE 1 END) FROM t",
        # avg with ELSE 0 must not take the pivot path
        "SELECT avg(CASE WHEN d = 1 THEN a ELSE 0 END), "
        "avg(CASE WHEN d = 2 THEN a ELSE 0 END) FROM t",
    ])
    def test_matches_linear(self, pair, sql):
        linear, hashed = pair
        assert linear.query(sql) == hashed.query(sql)

    def test_null_literal_is_never_equal(self):
        # ``d = NULL`` is UNKNOWN for every row -- the term is NULL, not
        # the sum over the rows where d IS NULL (which hash dispatch
        # returned: 10 and 30).
        sql = ("SELECT g, sum(CASE WHEN d = NULL THEN a END), "
               "sum(CASE WHEN d = 1 THEN a END) "
               "FROM t GROUP BY g ORDER BY g")
        for mode in ("linear", "hash"):
            db = Database(case_dispatch=mode)
            db.execute("CREATE TABLE t (g INT, d INT, a INT)")
            db.execute("INSERT INTO t VALUES (1, NULL, 10), (1, 1, 20), "
                       "(2, NULL, 30), (2, 1, 5)")
            assert db.query(sql) == [(1, None, 20), (2, None, 5)], mode


class TestMixedFunctionFamilies:
    """Terms sharing (pivot column, argument) form one dispatch family
    and share a single factorization pass -- but each distinct
    function still needs its own aggregate pass.  A shared family must
    never reuse the first term's aggregate for the others."""

    MIXED_SQL = """
    SELECT g,
      avg(CASE WHEN d = 1 THEN a ELSE null END) AS a1,
      sum(CASE WHEN d = 1 THEN a ELSE null END) AS s1,
      sum(CASE WHEN d = 2 THEN a ELSE null END) AS s2
    FROM t GROUP BY g ORDER BY g
    """

    def test_avg_and_sum_differ_per_cell(self, pair):
        linear, hashed = pair
        expected = linear.query(self.MIXED_SQL)
        assert hashed.query(self.MIXED_SQL) == expected
        # g=1, d=1 holds 10.0 and 5.0: avg 7.5, sum 15.0.
        assert expected[0] == (1, 7.5, 15.0, 2.0)

    def test_count_zero_does_not_leak_into_min(self, pair):
        # count() backfills 0 for untouched cells; min() of the same
        # family must stay NULL.
        sql = """
        SELECT
          count(CASE WHEN d = 3 THEN a ELSE null END) AS c3,
          min(CASE WHEN d = 3 THEN a ELSE null END) AS m3
        FROM t
        """
        linear, hashed = pair
        for db in (linear, hashed):
            assert db.query(sql) == [(0, None)]
