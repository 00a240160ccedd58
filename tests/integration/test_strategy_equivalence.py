"""Cross-strategy equivalence on generated data: every evaluation
strategy must return the same result table for the same query."""

import pytest

from repro import Database
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy, generate_plan,
                        run_percentage_query)
from repro.core.execute import execute_plan
from repro.datagen import load_transaction_line
from repro.sql.formatter import format_expr
from repro.sql.parser import parse_statement

from tests.conftest import case_fanout

VERTICAL_STRATEGIES = [
    VerticalStrategy(),
    VerticalStrategy(fj_from_fk=False),
    VerticalStrategy(use_update=True),
    VerticalStrategy(create_indexes=False),
    VerticalStrategy(matching_indexes=False),
    VerticalStrategy(single_statement=True),
]

HORIZONTAL_STRATEGIES = [
    HorizontalStrategy(source="F"),
    HorizontalStrategy(source="FV"),
    HorizontalAggStrategy(source="F"),
    HorizontalAggStrategy(source="FV"),
]


@pytest.fixture(scope="module")
def tdb():
    database = Database()
    load_transaction_line(database, 3_000, seed=99)
    return database


def rows_match(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a == pytest.approx(b, nan_ok=True)


class TestVerticalEquivalence:
    @pytest.mark.parametrize("sql", [
        "SELECT regionid, Vpct(salesamt) FROM transactionline "
        "GROUP BY regionid",
        "SELECT regionid, dayofweekno, "
        "Vpct(salesamt BY dayofweekno) FROM transactionline "
        "GROUP BY regionid, dayofweekno",
        "SELECT deptid, monthno, Vpct(itemqty BY monthno), "
        "sum(salesamt), count(*) FROM transactionline "
        "GROUP BY deptid, monthno",
    ], ids=["global", "one-level", "with-plain-terms"])
    def test_all_strategies_agree(self, tdb, sql):
        baseline = run_percentage_query(
            tdb, sql, VERTICAL_STRATEGIES[0]).to_rows()
        for strategy in VERTICAL_STRATEGIES[1:]:
            rows_match(baseline,
                       run_percentage_query(tdb, sql,
                                            strategy).to_rows())

    def test_percentages_sum_to_one_per_group(self, tdb):
        result = run_percentage_query(
            tdb, "SELECT regionid, dayofweekno, "
                 "Vpct(salesamt BY dayofweekno) FROM transactionline "
                 "GROUP BY regionid, dayofweekno")
        totals = {}
        for region, _, pct in result.to_rows():
            totals[region] = totals.get(region, 0.0) + pct
        for total in totals.values():
            assert total == pytest.approx(1.0)


class TestHorizontalEquivalence:
    @pytest.mark.parametrize("sql", [
        "SELECT regionid, sum(salesamt BY dayofweekno) "
        "FROM transactionline GROUP BY regionid",
        "SELECT regionid, avg(salesamt BY yearno), "
        "min(itemqty BY yearno), count(*) FROM transactionline "
        "GROUP BY regionid",
        "SELECT sum(salesamt BY regionid, yearno DEFAULT 0) "
        "FROM transactionline",
    ], ids=["sum", "multi-func", "global-two-col"])
    def test_all_strategies_agree(self, tdb, sql):
        baseline = None
        for strategy in HORIZONTAL_STRATEGIES:
            result = run_percentage_query(tdb, sql, strategy)
            if baseline is None:
                baseline = (result.column_names(), result.to_rows())
            else:
                assert result.column_names() == baseline[0]
                rows_match(baseline[1], result.to_rows())

    def test_hpct_case_strategies_agree(self, tdb):
        sql = ("SELECT regionid, Hpct(salesamt BY dayofweekno) "
               "FROM transactionline GROUP BY regionid")
        direct = run_percentage_query(tdb, sql,
                                      HorizontalStrategy(source="F"))
        indirect = run_percentage_query(tdb, sql,
                                        HorizontalStrategy(source="FV"))
        rows_match(direct.to_rows(), indirect.to_rows())


class TestHorizontalVsVerticalConsistency:
    def test_hpct_cells_equal_vpct_rows(self, tdb):
        """The horizontal form is a transposition of the vertical one:
        cell (g, d) of Hpct must equal the Vpct row (g, d)."""
        vertical = run_percentage_query(
            tdb, "SELECT regionid, dayofweekno, "
                 "Vpct(salesamt BY dayofweekno) FROM transactionline "
                 "GROUP BY regionid, dayofweekno")
        horizontal = run_percentage_query(
            tdb, "SELECT regionid, Hpct(salesamt BY dayofweekno) "
                 "FROM transactionline GROUP BY regionid")
        names = horizontal.column_names()
        cells = {}
        for row in horizontal.to_rows():
            record = dict(zip(names, row))
            for name in names[1:]:
                cells[(record["regionid"], name)] = record[name]
        for region, day, pct in vertical.to_rows():
            key = (region, f"c{day}")
            assert cells[key] == pytest.approx(pct)


class TestHashDispatchEquivalence:
    """The pivot kernel computes every generated CASE fan-out; the
    oracle is the generic evaluator: each column of the generated
    transpose statement asked for alone is a family of one, which the
    kernel leaves alone."""

    SQL = ("SELECT deptid, sum(salesamt BY dayofweekno), "
           "Hpct(itemqty BY yearno) FROM transactionline "
           "GROUP BY deptid")

    def test_hash_engine_matches_linear(self):
        db = Database()
        load_transaction_line(db, 2_000, seed=5)
        plan = generate_plan(db, self.SQL, HorizontalStrategy(source="F"))
        db.tracer.enable()
        before = db.stats.case_evaluations
        result = execute_plan(db, plan).result
        linear_charge = db.stats.case_evaluations - before
        booked, probes = case_fanout(db)
        db.tracer.disable()
        hashed_charge = linear_charge - booked + probes

        (transpose,) = [parse_statement(step.sql) for step in plan.steps
                        if step.purpose == "transpose"]
        items = transpose.select.items[1:]
        assert len(items) == result.schema.width() - 1
        for name, item in zip(result.column_names()[1:], items):
            alone = db.execute(
                f"SELECT deptid, {format_expr(item.expr)} "
                f"FROM transactionline GROUP BY deptid ORDER BY deptid")
            assert alone.column(alone.column_names()[1]).to_pylist() \
                == result.column(name).to_pylist(), name

        # The ledger: one family per BY list and THEN expression -- the
        # Hagg's, and the Hpct's numerator and match count -- of N
        # terms each over n rows is N*n WHEN tests on the ledger, and
        # n probes a hash dispatch would book (read off the trace);
        # the two outer CASEs of every Hpct column run over the groups
        # either way.
        table = db.table("transactionline")
        n, groups = table.n_rows, result.n_rows
        days = len(set(table.column("dayofweekno").to_pylist()))
        years = len(set(table.column("yearno").to_pylist()))
        outer = 2 * years * groups
        assert linear_charge == (days + 2 * years) * n + outer
        assert hashed_charge == 3 * n + outer
