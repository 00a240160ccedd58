"""Unit tests for the SPJ strategy (companion paper Section 3.4)."""

import math

import pytest

from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        generate_plan, run_percentage_query)
from repro.core import plan as plan_mod
from repro.errors import PercentageQueryError
from tests.core.test_horizontal import load_unprintable, transposed

QUERY = ("SELECT gender, sum(salary BY maritalstatus) FROM employee "
         "GROUP BY gender")


class TestPlanShape:
    def test_spj_creates_f0_and_projected_tables(self, employee_db):
        plan = generate_plan(employee_db, QUERY,
                             HorizontalAggStrategy(source="F"))
        purposes = [s.purpose for s in plan.steps]
        # F0 + two projected tables (Married, Single) + assemble.
        assert purposes.count(plan_mod.SPJ_PROJECT) == 3
        assert purposes.count(plan_mod.ASSEMBLE) == 1

    def test_assemble_uses_left_outer_joins_anchored_at_f0(
            self, employee_db):
        plan = generate_plan(employee_db, QUERY,
                             HorizontalAggStrategy(source="F"))
        assemble = next(s.sql for s in plan.steps
                        if s.purpose == plan_mod.ASSEMBLE)
        assert assemble.count("LEFT OUTER JOIN") == 2
        assert "_f0." in assemble or "_f0 " in assemble

    def test_indirect_adds_fv(self, employee_db):
        plan = generate_plan(employee_db, QUERY,
                             HorizontalAggStrategy(source="FV"))
        purposes = [s.purpose for s in plan.steps]
        assert plan_mod.AGGREGATE_FK in purposes

    def test_statement_count_grows_with_n(self, employee_db):
        # The SPJ cost driver: one table per BY combination.
        narrow = generate_plan(employee_db, QUERY,
                               HorizontalAggStrategy(source="F"))
        wide = generate_plan(
            employee_db,
            "SELECT gender, sum(salary BY employeeid) FROM employee "
            "GROUP BY gender",
            HorizontalAggStrategy(source="F"))
        assert wide.statement_count() > narrow.statement_count()


class TestExecution:
    @pytest.mark.parametrize("source", ["F", "FV"])
    def test_matches_case_strategy(self, employee_db, source):
        spj = run_percentage_query(
            employee_db, QUERY, HorizontalAggStrategy(source=source))
        case = run_percentage_query(employee_db, QUERY,
                                    HorizontalStrategy(source="F"))
        assert spj.column_names() == case.column_names()
        assert spj.to_rows() == case.to_rows()

    def test_missing_combination_is_null(self, employee_db):
        result = run_percentage_query(
            employee_db, QUERY, HorizontalAggStrategy(source="F"))
        rows = {r[0]: r for r in result.to_rows()}
        # No married men in the fixture.
        names = result.column_names()
        record = dict(zip(names, rows["M"]))
        assert record["Married"] is None

    def test_default_replaces_null(self, employee_db):
        result = run_percentage_query(
            employee_db,
            "SELECT gender, sum(salary BY maritalstatus DEFAULT 0) "
            "FROM employee GROUP BY gender",
            HorizontalAggStrategy(source="F"))
        record = dict(zip(result.column_names(), result.to_rows()[1]))
        assert record["Married"] == 0.0

    def test_binary_coding_example(self, employee_db):
        """DMKD Table 2: gender x marital flags per employee."""
        result = run_percentage_query(
            employee_db,
            "SELECT employeeid, "
            "sum(1 BY gender, maritalstatus DEFAULT 0), sum(salary) "
            "FROM employee GROUP BY employeeid",
            HorizontalAggStrategy(source="F"))
        names = result.column_names()
        first = dict(zip(names, result.to_rows()[0]))
        assert first["M_Single"] == 1.0
        assert first["F_Single"] == 0.0
        assert first["sum_salary"] == 30000.0

    def test_no_group_by_uses_constant_key(self, employee_db):
        result = run_percentage_query(
            employee_db,
            "SELECT sum(salary BY gender) FROM employee",
            HorizontalAggStrategy(source="F"))
        assert result.n_rows == 1
        row = dict(zip(result.column_names(), result.to_rows()[0]))
        assert row["M"] == 75000.0
        assert row["F"] == 90000.0
        assert "_k" not in result.column_names()

    def test_count_distinct_direct_only(self, employee_db):
        sql = ("SELECT gender, count(DISTINCT maritalstatus BY "
               "maritalstatus) FROM employee GROUP BY gender")
        result = run_percentage_query(
            employee_db, sql, HorizontalAggStrategy(source="F"))
        assert result.n_rows == 2
        with pytest.raises(PercentageQueryError):
            generate_plan(employee_db, sql,
                          HorizontalAggStrategy(source="FV"))

    def test_hpct_rejected(self, store_db):
        with pytest.raises(PercentageQueryError):
            generate_plan(store_db,
                          "SELECT store, Hpct(salesamt BY dweek) "
                          "FROM sales GROUP BY store",
                          HorizontalAggStrategy(source="F"))

    @pytest.mark.parametrize("func", ["sum", "count", "avg", "min",
                                      "max"])
    def test_every_aggregate_spj_matches_case(self, employee_db, func):
        sql = (f"SELECT gender, {func}(salary BY maritalstatus) "
               f"FROM employee GROUP BY gender")
        spj = run_percentage_query(employee_db, sql,
                                   HorizontalAggStrategy(source="F"))
        case = run_percentage_query(employee_db, sql,
                                    HorizontalStrategy(source="F"))
        assert spj.to_rows() == case.to_rows()


@pytest.mark.parametrize("source", ["F", "FV"])
def test_no_result_column_is_refused(db, source):
    # An empty table, no GROUP BY, no plain term: no BY combination
    # exists, so the result would have no column at all.
    db.load_table("f", [("d", "varchar"), ("m", "int")], [])
    with pytest.raises(PercentageQueryError,
                       match="no BY combinations and no GROUP BY"):
        run_percentage_query(db, "SELECT sum(m BY d) FROM f",
                             HorizontalAggStrategy(source=source))


class TestByValuesWithoutLiteralText:
    """``sum(m BY d)`` over BY values no SQL literal spells (a newline
    inside a string, infinite REALs) equals the transposed GROUP BY in
    every strategy; a NaN BY value is refused."""

    STRATEGIES = [HorizontalAggStrategy(source="F"),
                  HorizontalAggStrategy(source="FV"),
                  HorizontalStrategy(source="F"),
                  HorizontalStrategy(source="FV")]

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.describe())
    @pytest.mark.parametrize("by", ["d", "r"])
    def test_sum_by_equals_transposed_group_by(self, db, strategy, by):
        load_unprintable(db)
        values, sums = transposed(db, db.execute(
            f"SELECT g, {by}, sum(m) FROM f GROUP BY g, {by}"), by)
        result = run_percentage_query(
            db, f"SELECT g, sum(m BY {by}) FROM f GROUP BY g", strategy)
        for g, *row in result.to_rows():
            assert dict(zip(values, row)) == \
                {v: sums[g].get(v) for v in values}

    @pytest.mark.parametrize("strategy", STRATEGIES,
                             ids=lambda s: s.describe())
    def test_nan_by_value_is_refused(self, db, strategy):
        db.load_table("f", [("g", "int"), ("r", "real"), ("m", "real")],
                      [(1, math.nan, 1.0), (1, 2.0, 3.0)])
        with pytest.raises(PercentageQueryError, match="BY column r"):
            run_percentage_query(
                db, "SELECT g, sum(m BY r) FROM f GROUP BY g", strategy)
