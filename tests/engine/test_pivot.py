"""Unit tests for the pivot kernel (the one evaluator of a disjoint
``agg(CASE WHEN d = v THEN a END)`` family) and for what the ledger
charges for it.

The oracle is the generic CASE evaluator, reached without any hook: a
term asked for alone is a family of one, which the kernel leaves
alone.  ``tests/property/test_pivot_bitwise.py`` is the same comparison
over random tables and statements."""

from unittest import mock

import pytest

from repro import Database
from repro.engine import pivot as pivot_mod

from tests.conftest import case_fanout

ROWS = ("(1, 1, 10.0), (1, 1, 5.0), (1, 2, 2.0), (2, 2, 7.0), "
        "(2, 3, NULL), (3, 1, 1.0)")


def case_terms(func="sum", else_=" ELSE null", values=(1, 2, 3)):
    return [f"{func}(CASE WHEN d = {v} THEN a{else_} END)"
            for v in values]


PIVOT_TERMS = case_terms()
PIVOT_ZERO_TERMS = case_terms(else_=" ELSE 0")


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE t (g INT, d INT, a REAL)")
    db.execute(f"INSERT INTO t VALUES {ROWS}")
    return db


def select(terms, group_by="g"):
    if not group_by:
        return f"SELECT {', '.join(terms)} FROM t"
    return (f"SELECT {group_by}, {', '.join(terms)} FROM t "
            f"GROUP BY {group_by} ORDER BY {group_by}")


def together(db, terms, group_by="g"):
    """One N-term statement: the kernel, wherever it takes the family."""
    return db.query(select(terms, group_by))


def alone(db, terms, group_by="g"):
    """N single-term statements, zipped back into rows: the generic
    evaluator."""
    columns = [db.query(select([term], group_by)) for term in terms]
    return [tuple(columns[0][i][:-1])
            + tuple(column[i][-1] for column in columns)
            for i in range(len(columns[0]))]


class TestEquivalence:
    def test_else_null(self, db):
        assert together(db, PIVOT_TERMS) == alone(db, PIVOT_TERMS)

    def test_else_zero(self, db):
        assert together(db, PIVOT_ZERO_TERMS) == \
            alone(db, PIVOT_ZERO_TERMS)

    def test_expected_values(self, db):
        assert together(db, PIVOT_TERMS) == [(1, 15.0, 2.0, None),
                                             (2, None, 7.0, None),
                                             (3, 1.0, None, None)]

    def test_all_null_cell_with_else_zero(self, db):
        # Group 2 / d=3 has only a NULL measure, but the group's other
        # row adds ELSE's zero, so the sum is 0 -- and the kernel, which
        # never sees that zero, must agree.
        rows = together(db, PIVOT_ZERO_TERMS)
        assert rows[1][3] == 0.0
        assert rows == alone(db, PIVOT_ZERO_TERMS)

    def test_all_null_cell_that_is_its_whole_group(self, db):
        # ...whereas a group made of nothing but that cell has no row
        # to add a zero: NULL under either evaluator.
        db.execute("INSERT INTO t VALUES (4, 3, NULL)")
        rows = together(db, PIVOT_ZERO_TERMS)
        assert rows[3] == (4, 0.0, 0.0, None)
        assert rows == alone(db, PIVOT_ZERO_TERMS)

    def test_multi_column_conjunction(self, db):
        terms = ["sum(CASE WHEN g = 1 AND d = 1 THEN a ELSE null END)",
                 "sum(CASE WHEN g = 1 AND d = 2 THEN a ELSE null END)"]
        assert together(db, terms, "") == alone(db, terms, "") \
            == [(15.0, 2.0)]

    def test_count_min_max_families(self, db):
        for func in ("count", "min", "max"):
            terms = case_terms(func, values=(1, 2))
            assert together(db, terms) == alone(db, terms), func


class TestCostAccounting:
    """The ledger books the period DBMS's N WHEN tests per row; the
    proposed hash dispatch's one probe per row is read off the
    trace."""

    N_ROWS = 6

    def run(self, terms):
        db = Database(tracing=True)
        db.execute("CREATE TABLE t (g INT, d INT, a REAL)")
        db.execute(f"INSERT INTO t VALUES {ROWS}")
        db.tracer.reset()
        before = db.stats.case_evaluations
        with mock.patch.object(pivot_mod, "_compute_family",
                               wraps=pivot_mod._compute_family) as spy:
            rows = together(db, terms)
        return (rows, db.stats.case_evaluations - before,
                spy.call_count, case_fanout(db))

    def test_hash_dispatch_charges_one_probe_per_row(self):
        # A family of N terms over n rows in one kernel pass: N*n WHEN
        # tests on the ledger (the period DBMS), n probes on the trace.
        rows, charged, passes, (booked, probes) = self.run(PIVOT_TERMS)
        assert (charged, passes) == (3 * self.N_ROWS, 1)
        assert (booked, probes) == (charged, self.N_ROWS)

    def test_linear_charge_is_the_generic_evaluators(self, db):
        before = db.stats.case_evaluations
        alone(db, PIVOT_TERMS)
        assert db.stats.case_evaluations - before == 3 * self.N_ROWS

    def test_single_term_stays_linear(self):
        # A family of one is the generic evaluator's, charge included:
        # no family, so nothing a hash dispatch would save.
        assert self.run(PIVOT_TERMS[:1]) == \
            ([(1, 15.0), (2, None), (3, 1.0)], self.N_ROWS, 0, (0, 0))


class TestNonPivotShapesFallThrough:
    """Shapes outside the disjoint-pivot pattern are declined by the
    kernel and must still be correct (the generic evaluator has
    them)."""

    @pytest.mark.parametrize("sql, expected", [pytest.param(
        sql, expected, id=sql) for sql, expected in [
        # two WHENs in one CASE
        ("SELECT sum(CASE WHEN d = 1 THEN a WHEN d = 2 THEN a END) "
         "FROM t", [(25.0,)]),
        # non-equality condition
        ("SELECT sum(CASE WHEN d > 1 THEN a END), "
         "sum(CASE WHEN d > 2 THEN a END) FROM t", [(9.0, None)]),
        # non-zero ELSE
        ("SELECT sum(CASE WHEN d = 1 THEN a ELSE 1 END), "
         "sum(CASE WHEN d = 2 THEN a ELSE 1 END) FROM t",
         [(19.0, 13.0)]),
        # avg with ELSE 0 must not take the pivot path
        ("SELECT avg(CASE WHEN d = 1 THEN a ELSE 0 END), "
         "avg(CASE WHEN d = 2 THEN a ELSE 0 END) FROM t",
         [(16.0 / 6, 9.0 / 6)]),
    ]])
    def test_matches_linear(self, db, sql, expected):
        with mock.patch.object(pivot_mod, "_compute_family") as kernel:
            assert db.query(sql) == expected
        assert not kernel.called

    def test_null_literal_is_never_equal(self):
        # ``d = NULL`` is UNKNOWN for every row -- the term is NULL, not
        # the sum over the rows where d IS NULL (which the kernel once
        # returned: 10 and 30).
        sql = ("SELECT g, sum(CASE WHEN d = NULL THEN a END), "
               "sum(CASE WHEN d = 1 THEN a END) "
               "FROM t GROUP BY g ORDER BY g")
        db = Database()
        db.execute("CREATE TABLE t (g INT, d INT, a INT)")
        db.execute("INSERT INTO t VALUES (1, NULL, 10), (1, 1, 20), "
                   "(2, NULL, 30), (2, 1, 5)")
        assert db.query(sql) == [(1, None, 20), (2, None, 5)]


class TestMixedFunctionFamilies:
    """Terms sharing (pivot column, argument) form one dispatch family
    and share a single factorization pass -- but each distinct
    function still needs its own aggregate pass.  A shared family must
    never reuse the first term's aggregate for the others."""

    MIXED_TERMS = ["avg(CASE WHEN d = 1 THEN a ELSE null END)",
                   "sum(CASE WHEN d = 1 THEN a ELSE null END)",
                   "sum(CASE WHEN d = 2 THEN a ELSE null END)"]

    def test_avg_and_sum_differ_per_cell(self, db):
        rows = together(db, self.MIXED_TERMS)
        assert rows == alone(db, self.MIXED_TERMS)
        # g=1, d=1 holds 10.0 and 5.0: avg 7.5, sum 15.0.
        assert rows[0] == (1, 7.5, 15.0, 2.0)

    def test_count_zero_does_not_leak_into_min(self, db):
        # count() of a missing cell is 0; min() of the same family
        # must stay NULL.
        terms = ["count(CASE WHEN d = 9 THEN a ELSE null END)",
                 "min(CASE WHEN d = 9 THEN a ELSE null END)"]
        assert together(db, terms, "") == alone(db, terms, "") \
            == [(0, None)]
