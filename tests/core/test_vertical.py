"""Unit tests for Vpct code generation and execution strategies."""

import pytest

from repro.core import (VerticalStrategy, generate_plan,
                        run_percentage_query)
from repro.core import plan as plan_mod
from repro.errors import PercentageQueryError

QUERY = ("SELECT state, city, Vpct(salesAmt BY city) FROM sales "
         "GROUP BY state, city")

EXPECTED = [
    ("CA", "Los Angeles", pytest.approx(23 / 106)),
    ("CA", "San Francisco", pytest.approx(83 / 106)),
    ("TX", "Dallas", pytest.approx(85 / 149)),
    ("TX", "Houston", pytest.approx(64 / 149)),
]


class TestPlanShape:
    def test_default_plan_statements(self, sales_db):
        plan = generate_plan(sales_db, QUERY)
        purposes = [s.purpose for s in plan.steps]
        assert purposes == [
            plan_mod.CREATE_TEMP, plan_mod.AGGREGATE_FK,
            plan_mod.CREATE_TEMP, plan_mod.AGGREGATE_FJ,
            plan_mod.INDEX, plan_mod.INDEX,
            plan_mod.CREATE_TEMP, plan_mod.DIVIDE,
        ]
        # The partial-aggregate optimization: Fj comes from Fk, not F.
        fj_insert = plan.steps[3].sql
        assert "_fk" in fj_insert
        assert "FROM sales" not in fj_insert

    def test_fj_from_f_when_disabled(self, sales_db):
        plan = generate_plan(sales_db, QUERY,
                             VerticalStrategy(fj_from_fk=False))
        assert "FROM sales" in plan.steps[3].sql

    def test_update_plan_has_no_third_table(self, sales_db):
        plan = generate_plan(sales_db, QUERY,
                             VerticalStrategy(use_update=True))
        purposes = [s.purpose for s in plan.steps]
        assert plan_mod.UPDATE_DIVIDE in purposes
        assert purposes.count(plan_mod.CREATE_TEMP) == 2  # fk + fj only
        assert plan.result_table.endswith("_fk")

    def test_no_indexes_when_disabled(self, sales_db):
        plan = generate_plan(sales_db, QUERY,
                             VerticalStrategy(create_indexes=False))
        assert all(s.purpose != plan_mod.INDEX for s in plan.steps)

    def test_mismatched_indexes_skip_fj(self, sales_db):
        plan = generate_plan(sales_db, QUERY,
                             VerticalStrategy(matching_indexes=False))
        index_steps = [s.sql for s in plan.steps
                       if s.purpose == plan_mod.INDEX]
        assert len(index_steps) == 1
        assert "_fk" in index_steps[0]

    def test_division_is_zero_guarded(self, sales_db):
        plan = generate_plan(sales_db, QUERY)
        divide = plan.steps[-1].sql
        assert "CASE WHEN" in divide and "<> 0" in divide \
            and "ELSE NULL" in divide

    def test_script_rendering(self, sales_db):
        script = generate_plan(sales_db, QUERY).sql_script()
        assert script.count(";") >= 8
        assert "-- divide" in script


class TestExecution:
    @pytest.mark.parametrize("strategy", [
        VerticalStrategy(),
        VerticalStrategy(fj_from_fk=False),
        VerticalStrategy(use_update=True),
        VerticalStrategy(create_indexes=False),
        VerticalStrategy(matching_indexes=False),
        VerticalStrategy(single_statement=True),
        VerticalStrategy(use_update=True, create_indexes=False,
                         fj_from_fk=False),
    ])
    def test_all_strategies_reproduce_table2(self, sales_db, strategy):
        result = run_percentage_query(sales_db, QUERY, strategy)
        assert result.to_rows() == EXPECTED

    def test_temp_tables_dropped(self, sales_db):
        run_percentage_query(sales_db, QUERY)
        leftovers = [t for t in sales_db.table_names()
                     if t.startswith("_vp")]
        assert leftovers == []

    @pytest.mark.allow_leaks
    def test_keep_temps(self, sales_db):
        from repro.core.execute import execute_plan
        plan = generate_plan(sales_db, QUERY)
        execute_plan(sales_db, plan, keep_temps=True)
        assert any(t.startswith("_vp") for t in sales_db.table_names())

    def test_global_totals(self, sales_db):
        result = run_percentage_query(
            sales_db, "SELECT state, Vpct(salesAmt) FROM sales "
                      "GROUP BY state")
        rows = dict(result.to_rows())
        assert rows["CA"] == pytest.approx(106 / 255)
        assert rows["TX"] == pytest.approx(149 / 255)

    def test_by_equals_group_by_follows_formal_semantics(self, sales_db):
        # Section 3.1 informally claims BY == GROUP BY yields 100% per
        # row, but its own formula (totals grouped by GROUP BY minus
        # BY, here the empty list -> the grand total) and its worked
        # example imply global shares.  We follow the formula; the
        # discrepancy is recorded in DESIGN.md.
        result = run_percentage_query(
            sales_db, "SELECT state, Vpct(salesAmt BY state) "
                      "FROM sales GROUP BY state")
        rows = dict(result.to_rows())
        assert rows["CA"] == pytest.approx(106 / 255)
        assert rows["TX"] == pytest.approx(149 / 255)

    def test_combined_with_plain_aggregates(self, sales_db):
        result = run_percentage_query(
            sales_db,
            "SELECT state, city, Vpct(salesAmt BY city), "
            "sum(salesAmt), count(*) FROM sales GROUP BY state, city")
        first = result.to_rows()[0]
        assert first[0:2] == ("CA", "Los Angeles")
        assert first[3] == 23.0
        assert first[4] == 1

    def test_multiple_vpct_terms(self, sales_db):
        result = run_percentage_query(
            sales_db,
            "SELECT state, city, Vpct(salesAmt BY city) AS in_state, "
            "Vpct(salesAmt BY state, city) AS global FROM sales "
            "GROUP BY state, city")
        rows = {(r[0], r[1]): r for r in result.to_rows()}
        assert rows[("CA", "Los Angeles")][2] == pytest.approx(23 / 106)
        assert rows[("CA", "Los Angeles")][3] == pytest.approx(23 / 255)

    def test_where_passthrough(self, sales_db):
        result = run_percentage_query(
            sales_db,
            "SELECT city, Vpct(salesAmt) FROM sales "
            "WHERE state = 'TX' GROUP BY city")
        rows = dict(result.to_rows())
        assert rows["Dallas"] == pytest.approx(85 / 149)

    def test_expression_argument(self, sales_db):
        result = run_percentage_query(
            sales_db, "SELECT state, Vpct(salesAmt * 2) FROM sales "
                      "GROUP BY state")
        assert dict(result.to_rows())["CA"] == pytest.approx(106 / 255)

    def test_vpct_of_one_is_row_count_percentage(self, sales_db):
        """The paper's Vpct(1): percentages based on row counts."""
        result = run_percentage_query(
            sales_db, "SELECT state, Vpct(1) FROM sales "
                      "GROUP BY state")
        rows = dict(result.to_rows())
        assert rows["CA"] == pytest.approx(0.4)   # 4 of 10 rows
        assert rows["TX"] == pytest.approx(0.6)

    def test_vpct_of_one_with_totals(self, sales_db):
        result = run_percentage_query(
            sales_db, "SELECT state, city, Vpct(1 BY city) "
                      "FROM sales GROUP BY state, city")
        rows = {(r[0], r[1]): r[2] for r in result.to_rows()}
        assert rows[("TX", "Houston")] == pytest.approx(4 / 6)


class TestDivisionByZero:
    def test_zero_total_yields_null(self, db):
        db.load_table("f", [("g", "varchar"), ("c", "varchar"),
                            ("m", "real")],
                      [("a", "x", 5.0), ("a", "y", -5.0),
                       ("b", "x", 2.0)])
        result = run_percentage_query(
            db, "SELECT g, c, Vpct(m BY c) FROM f GROUP BY g, c")
        rows = {(r[0], r[1]): r[2] for r in result.to_rows()}
        assert rows[("a", "x")] is None
        assert rows[("a", "y")] is None
        assert rows[("b", "x")] == 1.0

    def test_zero_total_update_strategy(self, db):
        db.load_table("f", [("g", "varchar"), ("m", "real")],
                      [("a", 5.0), ("a", -5.0)])
        result = run_percentage_query(
            db, "SELECT g, Vpct(m BY g) FROM f GROUP BY g",
            VerticalStrategy(use_update=True))
        # total by g is zero: percentage must be NULL, not an error.
        assert result.to_rows() == [("a", None)]

    def test_null_measures_skipped_like_sum(self, db):
        db.load_table("f", [("g", "varchar"), ("c", "varchar"),
                            ("m", "real")],
                      [("a", "x", 10.0), ("a", "x", None),
                       ("a", "y", 30.0)])
        result = run_percentage_query(
            db, "SELECT g, c, Vpct(m BY c) FROM f GROUP BY g, c")
        rows = {(r[0], r[1]): r[2] for r in result.to_rows()}
        assert rows[("a", "x")] == pytest.approx(0.25)


class TestSingleStatement:
    def test_rejects_multiple_terms(self, sales_db):
        with pytest.raises(PercentageQueryError):
            generate_plan(
                sales_db,
                "SELECT state, city, Vpct(salesAmt BY city), "
                "Vpct(salesAmt) FROM sales GROUP BY state, city",
                VerticalStrategy(single_statement=True))

    def test_emits_no_temp_tables(self, sales_db):
        plan = generate_plan(sales_db, QUERY,
                             VerticalStrategy(single_statement=True))
        assert plan.temp_tables == []
        assert plan.result_table is None
        assert "FROM (" in plan.result_select


ALL_JOIN_STRATEGIES = [
    VerticalStrategy(),
    VerticalStrategy(fj_from_fk=False),
    VerticalStrategy(use_update=True),
    VerticalStrategy(create_indexes=False),
    VerticalStrategy(matching_indexes=False),
]


class TestDenominatorNullSemantics:
    """Zero and all-NULL coarse denominators yield NULL percentages
    identically in the join strategies, the single-statement CASE
    form, and the OLAP window rewrite."""

    ZERO_ROWS = [("a", "x", 5.0), ("a", "y", -5.0), ("b", "x", 2.0)]
    NULL_ROWS = [("a", "x", None), ("a", "y", None), ("b", "x", 2.0)]
    QUERY = "SELECT g, c, Vpct(m BY c) FROM f GROUP BY g, c"

    def _load(self, db, rows):
        db.load_table("f", [("g", "varchar"), ("c", "varchar"),
                            ("m", "real")], rows)
        return db

    def _expected(self, rows):
        return {("a", "x"): None, ("a", "y"): None,
                ("b", "x"): 1.0}

    @pytest.mark.parametrize("rows", [ZERO_ROWS, NULL_ROWS],
                             ids=["zero-total", "all-null-total"])
    @pytest.mark.parametrize(
        "strategy", ALL_JOIN_STRATEGIES + [
            VerticalStrategy(single_statement=True)],
        ids=["join", "join-rescan", "join-update", "join-noindex",
             "join-mismatch", "case-single-statement"])
    def test_sick_denominators_are_null(self, db, rows, strategy):
        self._load(db, rows)
        result = run_percentage_query(db, self.QUERY, strategy)
        got = {(r[0], r[1]): r[2] for r in result.to_rows()}
        assert got == self._expected(rows)

    @pytest.mark.parametrize("rows", [ZERO_ROWS, NULL_ROWS],
                             ids=["zero-total", "all-null-total"])
    def test_olap_rewrite_agrees(self, db, rows):
        from repro.olap import run_olap_percentage_query
        self._load(db, rows)
        result = run_olap_percentage_query(db, self.QUERY)
        got = {(r[0], r[1]): r[2] for r in result.to_rows()}
        assert got == self._expected(rows)


class TestNullGroupingValues:
    """NULL grouping values form a group of their own (the paper
    follows SQL GROUP BY semantics); the equi-joins between F, Fk and
    Fj must be null-safe or those rows silently disappear."""

    ROWS = [(None, "x", 6.0), (None, "x", 2.0), (None, "y", 8.0),
            ("b", None, 3.0), ("b", "x", 9.0)]

    @pytest.mark.parametrize(
        "strategy", ALL_JOIN_STRATEGIES,
        ids=["join", "join-rescan", "join-update", "join-noindex",
             "join-mismatch"])
    def test_null_groups_survive_the_join(self, db, strategy):
        db.load_table("f", [("g", "varchar"), ("c", "varchar"),
                            ("m", "real")], self.ROWS)
        result = run_percentage_query(
            db, "SELECT g, c, Vpct(m BY c) FROM f GROUP BY g, c",
            strategy)
        got = {(r[0], r[1]): r[2] for r in result.to_rows()}
        assert got[(None, "x")] == pytest.approx(8 / 16)
        assert got[(None, "y")] == pytest.approx(8 / 16)
        assert got[("b", None)] == pytest.approx(3 / 12)
        assert got[("b", "x")] == pytest.approx(9 / 12)
        assert len(got) == 4
