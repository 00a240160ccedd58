"""Golden execution traces, one per paper evaluation strategy.

Each test runs a strategy on the papers' worked examples under a
manual clock, renders the EXPLAIN ANALYZE text, normalizes generated
temp-table names, and compares byte-for-byte against the checked-in
golden under ``tests/obs/golden/``.  Regenerate intentionally changed
traces with ``pytest tests/obs --update-golden``.

These are the strongest regression net in the repo: any change to the
plan shape (statement count, operator order), to the cost accounting
(rows scanned/joined/written per operator), or to the trace format
shows up as a golden diff.
"""

import pytest

from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy)
from repro.core.execute import run_explain_analyze
from repro.obs.tracer import audit_statement_span, validate_span_tree

from tests.obs.conftest import normalize_temp_names

VPCT_SQL = ("SELECT state, Vpct(salesamt) FROM sales "
            "GROUP BY state, city")
HPCT_SQL = ("SELECT store, Hpct(salesamt BY dweek) FROM sales "
            "GROUP BY store")
HAGG_SQL = ("SELECT gender, sum(salary BY maritalstatus) "
            "FROM employee GROUP BY gender")


def _golden_text(db, sql, strategy) -> str:
    report = run_explain_analyze(db, sql, strategy=strategy)
    validate_span_tree(report.trace)
    for statement in report.trace.find(kind="statement"):
        audit_statement_span(statement)
    return normalize_temp_names(report.explain_analyze())


class TestVerticalGoldens:
    """Vpct: the paper's Table 4 strategies on the Table 1 example."""

    def test_vertical_insert(self, traced_sales_db, golden):
        golden("vertical-insert", _golden_text(
            traced_sales_db, VPCT_SQL,
            VerticalStrategy(use_update=False)))

    def test_vertical_update(self, traced_sales_db, golden):
        golden("vertical-update", _golden_text(
            traced_sales_db, VPCT_SQL,
            VerticalStrategy(use_update=True)))

    def test_vertical_single_statement(self, traced_sales_db, golden):
        golden("vertical-single-statement", _golden_text(
            traced_sales_db, VPCT_SQL,
            VerticalStrategy(single_statement=True,
                             create_indexes=False)))


class TestHorizontalGoldens:
    """Hpct: the CASE strategies (Table 5) on the Table 3 example."""

    def test_horizontal_case_from_f(self, traced_store_db, golden):
        golden("horizontal-case-f", _golden_text(
            traced_store_db, HPCT_SQL, HorizontalStrategy(source="F")))

    def test_horizontal_case_from_fv(self, traced_store_db, golden):
        golden("horizontal-case-fv", _golden_text(
            traced_store_db, HPCT_SQL,
            HorizontalStrategy(source="FV")))


class TestHorizontalAggGoldens:
    """Hagg: the companion paper's SPJ strategies."""

    def test_hagg_spj_from_f(self, traced_employee_db, golden):
        golden("hagg-spj-f", _golden_text(
            traced_employee_db, HAGG_SQL,
            HorizontalAggStrategy(source="F")))

    def test_hagg_spj_from_fv(self, traced_employee_db, golden):
        golden("hagg-spj-fv", _golden_text(
            traced_employee_db, HAGG_SQL,
            HorizontalAggStrategy(source="FV")))


class TestSQLExplainAnalyzeGolden:
    """The engine-level EXPLAIN ANALYZE statement (plain SQL path)."""

    def test_explain_analyze_join_group_by(self, traced_db, golden):
        db = traced_db
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (1, 20), (2, 30)")
        db.execute("CREATE TABLE u (a INT, tag VARCHAR)")
        db.execute("INSERT INTO u VALUES (1, 'x'), (2, 'y')")
        result = db.execute(
            "EXPLAIN ANALYZE SELECT t.a, u.tag, sum(t.b) "
            "FROM t, u WHERE t.a = u.a GROUP BY t.a, u.tag")
        text = "\n".join(line for (line,) in result.to_rows())
        golden("sql-explain-analyze", normalize_temp_names(text))


class TestGoldenDeterminism:
    """The same strategy rendered twice (fresh database each time)
    must produce identical text -- the property the golden files rely
    on."""

    @pytest.mark.parametrize("strategy", [
        VerticalStrategy(use_update=False),
        VerticalStrategy(use_update=True),
    ])
    def test_repeat_runs_identical(self, strategy):
        from repro import Database
        from repro.obs.clock import ManualClock
        from tests.conftest import PAPER_SALES_ROWS

        texts = []
        for _ in range(2):
            db = Database(tracing=True, clock=ManualClock())
            db.load_table(
                "sales",
                [("rid", "int"), ("state", "varchar"),
                 ("city", "varchar"), ("salesamt", "real")],
                PAPER_SALES_ROWS, primary_key=["rid"])
            texts.append(_golden_text(db, VPCT_SQL, strategy))
        assert texts[0] == texts[1]
