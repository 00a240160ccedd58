"""Unit tests for the per-query resource governor."""

import pytest

from repro import Database
from repro.engine.governor import ResourceBudget, ResourceGovernor
from repro.errors import (QueryTimeout, ResourceExhausted,
                          RowBudgetExceeded, WidthBudgetExceeded)


class TestBudget:
    def test_unlimited_describes_as_off(self):
        assert ResourceBudget().unlimited
        assert ResourceBudget().describe() == "off"

    def test_describe_lists_set_limits(self):
        budget = ResourceBudget(max_seconds=1.5, max_rows=100)
        assert budget.describe() == "timeout=1.5s rows=100"
        assert ResourceBudget(max_result_width=16).describe() \
            == "width=16"


class TestWindows:
    def test_checks_are_noops_outside_a_window(self):
        governor = ResourceGovernor(ResourceBudget(max_seconds=0.0,
                                                   max_rows=0,
                                                   max_result_width=0))
        governor.check_time()
        governor.charge_rows(10)
        governor.check_width(10)

    def test_timeout_fires_inside_a_window(self):
        governor = ResourceGovernor(ResourceBudget(max_seconds=0.0))
        with governor.window():
            with pytest.raises(QueryTimeout):
                governor.check_time("unit test")

    def test_row_budget_accumulates(self):
        governor = ResourceGovernor(ResourceBudget(max_rows=10))
        with governor.window():
            governor.charge_rows(6)
            with pytest.raises(RowBudgetExceeded, match="budget"):
                governor.charge_rows(6)

    def test_width_budget(self):
        governor = ResourceGovernor(ResourceBudget(max_result_width=4))
        with governor.window():
            governor.check_width(4)
            with pytest.raises(WidthBudgetExceeded):
                governor.check_width(5)

    def test_nested_windows_share_the_meter(self):
        governor = ResourceGovernor(ResourceBudget(max_rows=10))
        with governor.window():
            with governor.window():
                governor.charge_rows(6)
            # the inner exit must not reset the outer window's meter
            with governor.window():
                with pytest.raises(RowBudgetExceeded):
                    governor.charge_rows(6)

    def test_outermost_window_resets(self):
        governor = ResourceGovernor(ResourceBudget(max_rows=10))
        with governor.window():
            governor.charge_rows(8)
        with governor.window():
            governor.charge_rows(8)  # fresh window: no overrun


class TestDatabaseIntegration:
    def test_row_budget_stops_a_statement(self):
        db = Database(budget=ResourceBudget(max_rows=3))
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        # loading counted 3 rows written; a scan of 3 more overruns
        with pytest.raises(ResourceExhausted):
            db.execute("SELECT * FROM t WHERE a > 0 ORDER BY a")

    def test_budgets_off_by_default(self):
        assert Database().resource_budget().unlimited

    def test_set_resource_budget_round_trip(self):
        db = Database()
        budget = ResourceBudget(max_seconds=2.0, max_rows=100)
        db.set_resource_budget(budget)
        assert db.resource_budget() == budget
        db.set_resource_budget()
        assert db.resource_budget().unlimited

    def test_width_budget_blocks_create_table(self):
        db = Database(budget=ResourceBudget(max_result_width=2))
        with pytest.raises(WidthBudgetExceeded):
            db.execute("CREATE TABLE wide (a INT, b INT, c INT)")

    def test_explain_reports_the_budget_before_the_cache_line(self):
        db = Database(budget=ResourceBudget(max_seconds=5.0))
        db.execute("CREATE TABLE t (a INT)")
        lines = [row[0] for row in
                 db.execute("EXPLAIN SELECT * FROM t").to_rows()]
        assert lines[-2] == "governor: timeout=5s"
        assert lines[-1].startswith("encoding cache:")

    def test_explain_reports_off_when_unlimited(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        lines = [row[0] for row in
                 db.execute("EXPLAIN SELECT * FROM t").to_rows()]
        assert "governor: off" in lines
