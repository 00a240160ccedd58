"""Unit tests for Hpct/Hagg CASE-strategy code generation and
execution."""

import math

import pytest

from repro.core import (HorizontalStrategy, generate_plan,
                        run_percentage_query)
from repro.core import plan as plan_mod
from repro.core.naming import NamingPolicy
from repro.core.vertical import VerticalStrategy
from repro.errors import PercentageQueryError

STORE_QUERY = ("SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) "
               "FROM sales GROUP BY store")

#: Table 3 of the paper (percentages rounded to 2 decimals there).
TABLE3 = {
    2: {"Mo": 0.07, "Tu": 0.06, "We": 0.08, "Th": 0.09, "Fr": 0.16,
        "Sa": 0.24, "Su": 0.30, "total": 2500.0},
    4: {"Mo": 0.00, "Tu": 0.09, "We": 0.09, "Th": 0.09, "Fr": 0.18,
        "Sa": 0.20, "Su": 0.35, "total": 4000.0},
    7: {"Mo": 0.08, "Tu": 0.08, "We": 0.04, "Th": 0.04, "Fr": 0.08,
        "Sa": 0.35, "Su": 0.33, "total": 1600.0},
}


def check_table3(result):
    names = result.column_names()
    for row in result.to_rows():
        record = dict(zip(names, row))
        expected = TABLE3[record["store"]]
        for day, pct in expected.items():
            if day == "total":
                assert record["sum_salesAmt"] == pct
            else:
                assert record[day] == pytest.approx(pct, abs=0.005)


class TestDirectStrategy:
    def test_reproduces_table3(self, store_db):
        result = run_percentage_query(store_db, STORE_QUERY,
                                      HorizontalStrategy(source="F"))
        check_table3(result)

    def test_single_transpose_statement(self, store_db):
        plan = generate_plan(store_db, STORE_QUERY,
                             HorizontalStrategy(source="F"))
        purposes = [s.purpose for s in plan.steps]
        assert purposes == [plan_mod.DISCOVER, plan_mod.CREATE_TEMP,
                            plan_mod.TRANSPOSE]
        assert "CASE WHEN dweek = 'Fr'" in plan.steps[2].sql

    def test_missing_cell_is_zero(self, store_db):
        result = run_percentage_query(store_db, STORE_QUERY,
                                      HorizontalStrategy(source="F"))
        names = result.column_names()
        store4 = dict(zip(names, result.to_rows()[1]))
        assert store4["store"] == 4
        assert store4["Mo"] == 0.0

    def test_rows_sum_to_one(self, store_db):
        result = run_percentage_query(store_db, STORE_QUERY,
                                      HorizontalStrategy(source="F"))
        day_columns = [c for c in result.column_names()
                       if c not in ("store", "sum_salesAmt")]
        names = result.column_names()
        for row in result.to_rows():
            record = dict(zip(names, row))
            assert sum(record[c] for c in day_columns) == \
                pytest.approx(1.0)


class TestIndirectStrategy:
    def test_matches_direct(self, store_db):
        direct = run_percentage_query(store_db, STORE_QUERY,
                                      HorizontalStrategy(source="F"))
        indirect = run_percentage_query(store_db, STORE_QUERY,
                                        HorizontalStrategy(source="FV"))
        assert direct.column_names() == indirect.column_names()
        for a, b in zip(direct.to_rows(), indirect.to_rows()):
            assert a == pytest.approx(b)

    def test_fv_step_uses_vertical_generator(self, store_db):
        plan = generate_plan(store_db, STORE_QUERY,
                             HorizontalStrategy(source="FV"))
        purposes = [s.purpose for s in plan.steps]
        assert plan_mod.AGGREGATE_FK in purposes
        assert plan_mod.DIVIDE in purposes       # the Vpct division
        assert plan_mod.TRANSPOSE in purposes

    def test_vertical_strategy_forwarded(self, store_db):
        strategy = HorizontalStrategy(
            source="FV", vertical=VerticalStrategy(use_update=True))
        plan = generate_plan(store_db, STORE_QUERY, strategy)
        assert any(s.purpose == plan_mod.UPDATE_DIVIDE
                   for s in plan.steps)

    def test_count_distinct_rejected_indirect(self, store_db):
        with pytest.raises(PercentageQueryError):
            generate_plan(
                store_db,
                "SELECT store, count(DISTINCT rid BY dweek) "
                "FROM sales GROUP BY store",
                HorizontalStrategy(source="FV"))


class TestNoGroupBy:
    @pytest.mark.parametrize("source", ["F", "FV"])
    def test_single_global_row(self, store_db, source):
        result = run_percentage_query(
            store_db, "SELECT Hpct(salesAmt BY store) FROM sales",
            HorizontalStrategy(source=source))
        assert result.n_rows == 1
        total = 2500 + 4000 + 1600
        row = dict(zip(result.column_names(), result.to_rows()[0]))
        assert row["c2"] == pytest.approx(2500 / total)
        assert row["c4"] == pytest.approx(4000 / total)


class TestMultipleTerms:
    def test_two_hpct_terms_prefixed(self, employee_db):
        result = run_percentage_query(
            employee_db,
            "SELECT Hpct(salary BY gender) AS g, "
            "Hpct(salary BY maritalstatus) AS m FROM employee")
        names = result.column_names()
        assert any(n.startswith("g_") for n in names)
        assert any(n.startswith("m_") for n in names)
        row = dict(zip(names, result.to_rows()[0]))
        g_cols = [n for n in names if n.startswith("g_")]
        assert sum(row[n] for n in g_cols) == pytest.approx(1.0)

    def test_hpct_with_hagg(self, employee_db):
        result = run_percentage_query(
            employee_db,
            "SELECT gender, Hpct(salary BY maritalstatus), "
            "max(salary BY maritalstatus) AS mx FROM employee "
            "GROUP BY gender")
        names = result.column_names()
        rows = {r[0]: dict(zip(names, r)) for r in result.to_rows()}
        # Both terms are horizontal, so combo columns carry the term
        # label as a prefix.
        assert rows["M"]["hpct_salary_Single"] == pytest.approx(1.0)
        assert rows["M"]["mx_Single"] == 45000.0
        assert rows["M"]["mx_Married"] is None

    @pytest.mark.parametrize("source", ["F", "FV"])
    def test_compound_argument_labels(self, db, source):
        # Labels spell a compound argument with every operand
        # parenthesized, whatever the printer's parenthesis rules.
        db.load_table("f", [("g", "int"), ("d", "varchar"),
                            ("a", "real"), ("b", "real"), ("c", "real")],
                      [(1, "x", 1.0, 2.0, 3.0), (1, "y", 2.0, 1.0, 1.0)])
        result = run_percentage_query(
            db, "SELECT g, Hpct(a + b * c BY d), sum(a + b * c BY d), "
                "max((a - b) - c BY d), count(NOT a = b BY d) FROM f "
                "GROUP BY g", HorizontalStrategy(source=source))
        assert result.column_names() == [
            "g", "hpct_a__b_c__x", "hpct_a__b_c__y", "sum_a__b_c__x",
            "sum_a__b_c__y", "max__a_b__c_x", "max__a_b__c_y",
            "count_NOT_a_b__x", "count_NOT_a_b__y"]


class TestNaming:
    def test_full_style(self, store_db):
        result = run_percentage_query(
            store_db,
            "SELECT store, Hpct(salesAmt BY dweek) FROM sales "
            "GROUP BY store",
            HorizontalStrategy(naming=NamingPolicy(style="full")))
        assert "dweek_Mo" in result.column_names()

    def test_value_collision_dedupe(self, db):
        db.load_table("f", [("g", "int"), ("a", "varchar"),
                            ("b", "varchar"), ("m", "real")],
                      [(1, "x", "y", 1.0), (1, "x_y", None, 2.0)])
        result = run_percentage_query(
            db, "SELECT g, sum(m BY a, b) FROM f GROUP BY g")
        names = result.column_names()
        assert len(names) == len({n.lower() for n in names})


class TestVerticalPartitioning:
    def test_wide_result_partitions_and_reassembles(self):
        from repro import Database
        db = Database(max_columns=6)
        rows = [(g, d, float(g * 10 + d))
                for g in (1, 2) for d in range(8)]
        db.load_table("f", [("g", "int"), ("d", "int"), ("m", "real")],
                      rows)
        result = run_percentage_query(
            db, "SELECT g, Hpct(m BY d) FROM f GROUP BY g")
        # 8 percentage columns cannot fit a 6-column table next to the
        # key; the plan must partition yet return the full result.
        assert result.schema.width() == 9
        names = result.column_names()
        for row in result.to_rows():
            record = dict(zip(names, row))
            total = sum(v for k, v in record.items() if k != "g")
            assert total == pytest.approx(1.0)

    @pytest.mark.allow_leaks
    def test_partition_tables_respect_limit(self):
        from repro import Database
        from repro.core.execute import execute_plan
        db = Database(max_columns=6)
        rows = [(g, d, float(d)) for g in (1, 2) for d in range(8)]
        db.load_table("f", [("g", "int"), ("d", "int"), ("m", "real")],
                      rows)
        plan = generate_plan(db, "SELECT g, Hpct(m BY d) FROM f "
                                 "GROUP BY g")
        execute_plan(db, plan, keep_temps=True)
        fh_tables = [t for t in db.table_names() if "_fh" in t]
        assert len(fh_tables) >= 2
        for name in fh_tables:
            assert db.table(name).schema.width() <= 6


class TestThreeWayCellSemantics:
    """An Hpct cell distinguishes three situations, in both the direct
    CASE transpose and the indirect FV path:

    * sick group (denominator zero or all-NULL)  -> whole row NULL;
    * combination present but its measures all NULL -> NULL cell;
    * combination genuinely absent from the group -> 0 cell.

    This keeps Hpct transposition-consistent with Vpct on the same
    cells.
    """

    SOURCES = ["F", "FV"]

    def _run(self, db, source):
        return run_percentage_query(
            db, "SELECT g, Hpct(m BY d) FROM f GROUP BY g",
            HorizontalStrategy(source=source))

    @pytest.mark.parametrize("source", SOURCES)
    def test_all_null_denominator_nulls_the_row(self, db, source):
        db.load_table("f", [("g", "varchar"), ("d", "varchar"),
                            ("m", "real")],
                      [("a", "x", None), ("a", "y", None),
                       ("b", "x", 2.0)])
        result = self._run(db, source)
        names = result.column_names()
        rows = {r[0]: dict(zip(names, r)) for r in result.to_rows()}
        assert rows["a"]["x"] is None
        assert rows["a"]["y"] is None
        assert rows["b"]["x"] == pytest.approx(1.0)
        assert rows["b"]["y"] == 0          # absent combination

    @pytest.mark.parametrize("source", SOURCES)
    def test_zero_denominator_nulls_the_row(self, db, source):
        db.load_table("f", [("g", "varchar"), ("d", "varchar"),
                            ("m", "real")],
                      [("a", "x", 2.5), ("a", "y", -2.5),
                       ("b", "x", 2.0)])
        result = self._run(db, source)
        names = result.column_names()
        rows = {r[0]: dict(zip(names, r)) for r in result.to_rows()}
        assert rows["a"]["x"] is None
        assert rows["a"]["y"] is None
        assert rows["b"]["x"] == pytest.approx(1.0)

    @pytest.mark.parametrize("source", SOURCES)
    def test_present_all_null_cell_differs_from_absent(self, db,
                                                       source):
        # Group "a" is healthy (x sums to 4): its all-NULL y cell is
        # NULL, its absent z cell is 0.
        db.load_table("f", [("g", "varchar"), ("d", "varchar"),
                            ("m", "real")],
                      [("a", "x", 4.0), ("a", "y", None),
                       ("b", "z", 1.0)])
        result = self._run(db, source)
        names = result.column_names()
        rows = {r[0]: dict(zip(names, r)) for r in result.to_rows()}
        assert rows["a"]["x"] == pytest.approx(1.0)
        assert rows["a"]["y"] is None
        assert rows["a"]["z"] == 0


class TestEmptyTableGlobalAggregates:
    """A global count over an empty table is 0 in every path; the
    indirect strategy's recombination (a sum of partial counts over an
    empty FV) must coalesce to 0 rather than report NULL."""

    def _load(self, db):
        db.load_table("f", [("d", "varchar"), ("m", "int")], [])

    @pytest.mark.parametrize("indirect", [False, True],
                             ids=["direct", "indirect"])
    def test_global_count_star_is_zero(self, db, indirect):
        self._load(db)
        # The horizontal term contributes no columns (DISTINCT d over
        # an empty table is empty); only the count survives.
        result = run_percentage_query(
            db, "SELECT sum(m BY d DEFAULT -1), count(*) FROM f",
            HorizontalStrategy(source="FV" if indirect else "F"))
        assert result.to_rows() == [(0,)]

    @pytest.mark.parametrize("indirect", [False, True],
                             ids=["direct", "indirect"])
    def test_count_backfills_zero_but_sum_stays_null(self, db,
                                                     indirect):
        # One row whose measure is NULL: count of the cell is 0, the
        # sum of the same cell is NULL (SQL's empty-sum semantics).
        db.load_table("f", [("d", "varchar"), ("m", "int")],
                      [("x", None)])
        result = run_percentage_query(
            db, "SELECT count(m BY d), sum(m BY d), count(*) FROM f",
            HorizontalStrategy(source="FV" if indirect else "F"))
        record = dict(zip(result.column_names(),
                          result.to_rows()[0]))
        assert record["count_m_x"] == 0
        assert record["sum_m_x"] is None
        assert record["count_3"] == 1

    @pytest.mark.parametrize("term", ["Hpct(m BY d)", "sum(m BY d)"])
    @pytest.mark.parametrize("indirect", [False, True],
                             ids=["direct", "indirect"])
    def test_no_result_column_is_refused(self, db, term, indirect):
        # No GROUP BY, no plain term and no BY combination: the result
        # would have no column at all.
        self._load(db)
        with pytest.raises(PercentageQueryError,
                           match="no BY combinations and no GROUP BY"):
            run_percentage_query(
                db, f"SELECT {term} FROM f",
                HorizontalStrategy(source="FV" if indirect else "F"))


#: BY values whose literal text does not read back: a string holding a
#: newline and REAL infinities.
UNPRINTABLE = [("a", "x\ny", math.inf, 1.0), ("a", "w", -math.inf, 3.0),
               ("b", "x\ny", 1.5, 2.0), ("b", "w", math.inf, 6.0)]


def load_unprintable(db):
    db.load_table("f", [("g", "varchar"), ("d", "varchar"),
                        ("r", "real"), ("m", "real")], UNPRINTABLE)


def transposed(db, vertical, by):
    """The BY values in result-column order, and ``{g: {value: cell}}``
    read off the rows of a vertical query ``(g, value, cell)``."""
    cells = {}
    for g, value, cell in vertical.to_rows():
        cells.setdefault(g, {})[value] = cell
    values = [v for (v,) in db.query(
        f"SELECT DISTINCT {by} FROM f ORDER BY {by}")]
    return values, cells


class TestByValuesWithoutLiteralText:
    """The engine runs the generator's trees, so a BY value that no
    SQL literal spells -- a newline inside a string, an infinite REAL
    -- still makes its result column; a NaN, which no cell condition
    can match, is refused."""

    @pytest.mark.parametrize("source", ["F", "FV"])
    @pytest.mark.parametrize("by", ["d", "r"])
    def test_hpct_equals_transposed_vpct(self, db, source, by):
        load_unprintable(db)
        values, vpct = transposed(db, run_percentage_query(
            db, f"SELECT g, {by}, Vpct(m BY {by}) FROM f "
                f"GROUP BY g, {by}"), by)
        assert len(values) == (2 if by == "d" else 3)
        result = run_percentage_query(
            db, f"SELECT g, Hpct(m BY {by}) FROM f GROUP BY g",
            HorizontalStrategy(source=source))
        for g, *row in result.to_rows():
            assert dict(zip(values, row)) == pytest.approx(
                {v: vpct[g].get(v, 0.0) for v in values})

    @pytest.mark.parametrize("source", ["F", "FV"])
    def test_nan_by_value_is_refused(self, db, source):
        db.load_table("f", [("g", "int"), ("r", "real"), ("m", "real")],
                      [(1, math.nan, 1.0), (1, 2.0, 3.0)])
        with pytest.raises(PercentageQueryError, match="BY column r"):
            run_percentage_query(
                db, "SELECT g, Hpct(m BY r) FROM f GROUP BY g",
                HorizontalStrategy(source=source))
