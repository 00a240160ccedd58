"""Unit tests for the end-to-end runner: dispatch, cleanup, reporting."""

import pytest

from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy, generate_plan,
                        run_percentage_query)
from repro.core.execute import cleanup_plan, execute_plan
from repro.errors import PercentageQueryError
from repro.sql.parser import parse_statement


class TestDispatch:
    def test_vpct_routes_to_vertical(self, sales_db):
        plan = generate_plan(
            sales_db, "SELECT state, Vpct(salesamt) FROM sales "
                      "GROUP BY state")
        assert isinstance(plan.strategy, VerticalStrategy)

    def test_horizontal_routes_to_case(self, store_db):
        plan = generate_plan(
            store_db, "SELECT store, Hpct(salesamt BY dweek) "
                      "FROM sales GROUP BY store")
        assert isinstance(plan.strategy, HorizontalStrategy)

    def test_spj_forced_by_strategy_type(self, employee_db):
        plan = generate_plan(
            employee_db, "SELECT gender, sum(salary BY maritalstatus) "
                         "FROM employee GROUP BY gender",
            HorizontalAggStrategy(source="F"))
        assert isinstance(plan.strategy, HorizontalAggStrategy)

    def test_wrong_strategy_type_rejected(self, sales_db):
        with pytest.raises(PercentageQueryError):
            generate_plan(
                sales_db, "SELECT state, Vpct(salesamt) FROM sales "
                          "GROUP BY state",
                HorizontalStrategy(source="F"))

    def test_plain_query_rejected(self, sales_db):
        with pytest.raises(PercentageQueryError):
            generate_plan(sales_db,
                          "SELECT state, sum(salesamt) FROM sales "
                          "GROUP BY state")

    def test_validation_happens_before_generation(self, sales_db):
        with pytest.raises(PercentageQueryError):
            generate_plan(sales_db,
                          "SELECT Vpct(salesamt) FROM sales")


class TestExecutionReport:
    def test_report_fields(self, sales_db):
        plan = generate_plan(
            sales_db, "SELECT state, Vpct(salesamt) FROM sales "
                      "GROUP BY state")
        report = execute_plan(sales_db, plan)
        assert report.result.n_rows == 2
        assert report.statements_run == plan.statement_count()

    def test_discover_steps_not_rerun(self, store_db):
        plan = generate_plan(
            store_db, "SELECT store, Hpct(salesamt BY dweek) "
                      "FROM sales GROUP BY store")
        report = execute_plan(store_db, plan)
        discover = sum(1 for s in plan.steps
                       if s.purpose == "discover")
        assert discover >= 1
        assert report.statements_run == \
            plan.statement_count() - discover

    def test_cleanup_idempotent(self, sales_db):
        plan = generate_plan(
            sales_db, "SELECT state, Vpct(salesamt) FROM sales "
                      "GROUP BY state")
        execute_plan(sales_db, plan)
        cleanup_plan(sales_db, plan)  # already dropped; must not raise

    def test_cleanup_runs_on_failure(self, sales_db):
        plan = generate_plan(
            sales_db, "SELECT state, Vpct(salesamt) FROM sales "
                      "GROUP BY state")
        plan.steps[0].statement = parse_statement(
            "SELECT * FROM nonexistent")
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            execute_plan(sales_db, plan)
        assert not any(t.startswith("_vp")
                       for t in sales_db.table_names())


class TestMaterializedView:
    def test_join_from_clause_materialized(self, db):
        db.load_table("facts", [("k", "int"), ("m", "real")],
                      [(1, 10.0), (1, 30.0), (2, 60.0)])
        db.load_table("dim", [("k", "int"), ("label", "varchar")],
                      [(1, "one"), (2, "two")])
        result = run_percentage_query(
            db,
            "SELECT label, Vpct(m) FROM facts, dim "
            "WHERE facts.k = dim.k GROUP BY label")
        rows = dict(result.to_rows())
        assert rows["one"] == pytest.approx(0.4)
        assert rows["two"] == pytest.approx(0.6)
        # The temp view is dropped with the rest of the plan.
        assert all(not t.startswith("_vp") for t in db.table_names())

    def test_horizontal_on_join(self, db):
        db.load_table("facts", [("k", "int"), ("m", "real")],
                      [(1, 10.0), (2, 30.0)])
        db.load_table("dim", [("k", "int"), ("label", "varchar")],
                      [(1, "one"), (2, "two")])
        result = run_percentage_query(
            db,
            "SELECT sum(m BY label) FROM facts, dim "
            "WHERE facts.k = dim.k")
        row = dict(zip(result.column_names(), result.to_rows()[0]))
        assert row["one"] == 10.0
        assert row["two"] == 30.0
