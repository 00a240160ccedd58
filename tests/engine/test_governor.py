"""Unit tests for the per-query resource governor."""

import pytest

from repro import Database
from repro.engine.governor import ResourceBudget, ResourceGovernor
from repro.engine.scope import QueryRecord
from repro.errors import (ResourceExhausted, RowBudgetExceeded,
                          WidthBudgetExceeded)

#: Charges six rows: a three-row scan plus its three-row projection.
SCAN_SIX = "SELECT a FROM t"


def _loaded(db: Database) -> Database:
    db.load_table("t", [("a", "int")], [(1,), (2,), (3,)])
    return db


class TestBudget:
    def test_unlimited_describes_as_off(self):
        assert ResourceBudget().unlimited
        assert ResourceBudget().describe() == "off"

    def test_describe_lists_set_limits(self):
        budget = ResourceBudget(max_rows=100, max_result_width=16)
        assert budget.describe() == "rows=100 width=16"
        assert ResourceBudget(max_result_width=16).describe() \
            == "width=16"

    @pytest.mark.parametrize("field", ["max_rows", "max_result_width"])
    def test_negative_limits_are_rejected(self, field):
        """A negative limit would fail every query ("materialized 0
        rows; the budget is -1"); zero is a legal, if strict, one."""
        with pytest.raises(ValueError, match=field):
            ResourceBudget(**{field: -1})
        assert not ResourceBudget(**{field: 0}).unlimited


class TestWindows:
    """The window a budget applies to is the outermost query scope:
    its record carries the row meter."""

    def test_checks_are_noops_outside_a_window(self):
        governor = ResourceGovernor(ResourceBudget(max_rows=0,
                                                   max_result_width=0))
        governor.charge_rows(None, 10)
        governor.check_width(None, 10)

    def test_row_budget_accumulates(self):
        governor = ResourceGovernor(ResourceBudget(max_rows=10))
        query = QueryRecord()
        governor.charge_rows(query, 6)
        with pytest.raises(RowBudgetExceeded, match="budget"):
            governor.charge_rows(query, 6)
        assert query.rows_charged == 12

    def test_width_budget(self):
        governor = ResourceGovernor(ResourceBudget(max_result_width=4))
        governor.check_width(QueryRecord(), 4)
        with pytest.raises(WidthBudgetExceeded):
            governor.check_width(QueryRecord(), 5)

    def test_nested_windows_share_the_meter(self):
        db = _loaded(Database(budget=ResourceBudget(max_rows=10)))
        with db.scope("script"):
            with db.scope("plan"):
                db.execute(SCAN_SIX)
            # the inner exit must not reset the outer scope's meter
            with pytest.raises(RowBudgetExceeded):
                db.execute(SCAN_SIX)

    def test_outermost_window_resets(self):
        db = _loaded(Database(budget=ResourceBudget(max_rows=10)))
        for _ in range(2):
            with db.scope("script"):
                db.execute(SCAN_SIX)  # a fresh meter: no overrun
        assert db.executor.scopes.last.rows_charged == 6


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
        budget = ResourceBudget(max_rows=100, max_result_width=8)
        db.set_resource_budget(budget)
        assert db.resource_budget() == budget
        db.set_resource_budget()
        assert db.resource_budget().unlimited

    def test_width_budget_blocks_create_table(self):
        db = Database(budget=ResourceBudget(max_result_width=2))
        with pytest.raises(WidthBudgetExceeded):
            db.execute("CREATE TABLE wide (a INT, b INT, c INT)")

    def test_explain_reports_the_budget_before_the_cache_line(self):
        db = Database(budget=ResourceBudget(max_rows=5))
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (1)")
        lines = [row[0] for row in
                 db.execute("EXPLAIN SELECT * FROM t").to_rows()]
        assert lines[-1] == "governor: rows=5"
        # EXPLAIN ANALYZE: the plan's budget line, then the actual
        # run, whose GROUP BY charges its encoding-memo read.
        lines = [row[0].strip() for row in db.execute(
            "EXPLAIN ANALYZE SELECT a, count(*) FROM t GROUP BY a"
        ).to_rows()]
        cache = [i for i, line in enumerate(lines)
                 if line.startswith("encoding-cache")]
        assert cache
        assert lines.index("governor: rows=5") < cache[0]

    def test_explain_reports_off_when_unlimited(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        lines = [row[0] for row in
                 db.execute("EXPLAIN SELECT * FROM t").to_rows()]
        assert "governor: off" in lines
