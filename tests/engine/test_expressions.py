"""Unit tests for the vectorized expression evaluator, with emphasis on
three-valued NULL logic."""

import pytest

from repro.engine.column import ColumnData
from repro.engine.expressions import Frame, evaluate, evaluate_scalar
from repro.engine.types import SQLType
from repro.errors import PlanningError, TypeMismatchError
from repro.sql.parser import parse_expression


def make_frame(**columns) -> Frame:
    length = len(next(iter(columns.values())))
    frame = Frame(length)
    for name, values in columns.items():
        if all(isinstance(v, (int, type(None))) for v in values):
            sql_type = SQLType.INTEGER
        elif any(isinstance(v, str) for v in values):
            sql_type = SQLType.VARCHAR
        else:
            sql_type = SQLType.REAL
        frame.add_column(name, ColumnData.from_values(sql_type, values))
    return frame


def run(text, **columns):
    frame = make_frame(**columns)
    return evaluate(parse_expression(text), frame).to_pylist()


class TestArithmetic:
    def test_add(self):
        assert run("a + b", a=[1, 2], b=[10, 20]) == [11, 22]

    def test_null_propagates(self):
        assert run("a + 1", a=[1, None]) == [2, None]

    def test_division_yields_real(self):
        assert run("a / 2", a=[5]) == [2.5]

    def test_division_by_zero_is_null(self):
        assert run("a / b", a=[1, 1], b=[0, 2]) == [None, 0.5]

    def test_unary_minus(self):
        assert run("-a", a=[3, None]) == [-3, None]

    def test_string_arithmetic_raises(self):
        with pytest.raises(TypeMismatchError):
            run("a + 1", a=["x"])


class TestComparisons:
    def test_literal_fast_path(self):
        assert run("a = 2", a=[1, 2, None]) == [False, True, None]
        assert run("2 = a", a=[1, 2]) == [False, True]
        assert run("a < 2", a=[1, 3]) == [True, False]
        assert run("2 < a", a=[1, 3]) == [False, True]

    def test_column_comparison(self):
        assert run("a <> b", a=[1, 2], b=[1, 3]) == [False, True]

    def test_string_comparison(self):
        assert run("a = 'x'", a=["x", "y", None]) == [True, False, None]

    def test_mixed_numeric(self):
        frame = Frame(1)
        frame.add_column("a", ColumnData.from_values(SQLType.INTEGER,
                                                     [2]))
        frame.add_column("b", ColumnData.from_values(SQLType.REAL,
                                                     [2.0]))
        result = evaluate(parse_expression("a = b"), frame)
        assert result.to_pylist() == [True]

    def test_between(self):
        assert run("a BETWEEN 2 AND 4", a=[1, 3, 5]) == \
            [False, True, False]


class TestKleeneLogic:
    def test_and(self):
        assert run("a = 1 AND b = 1", a=[1, 1, 0, None],
                   b=[1, 0, None, None]) == [True, False, False, None]

    def test_or(self):
        assert run("a = 1 OR b = 1", a=[1, 0, 0, None],
                   b=[0, 0, None, 1]) == [True, False, None, True]

    def test_not(self):
        assert run("NOT a = 1", a=[1, 0, None]) == [False, True, None]

    def test_null_and_false_is_false(self):
        # The asymmetric Kleene case: NULL AND FALSE = FALSE.
        assert run("a = 1 AND b = 1", a=[None], b=[0]) == [False]

    def test_null_or_true_is_true(self):
        assert run("a = 1 OR b = 1", a=[None], b=[1]) == [True]


class TestNullPredicates:
    def test_is_null(self):
        assert run("a IS NULL", a=[1, None]) == [False, True]

    def test_is_not_null(self):
        assert run("a IS NOT NULL", a=[1, None]) == [True, False]

    def test_in_list(self):
        assert run("a IN (1, 3)", a=[1, 2, None]) == [True, False, None]

    def test_not_in(self):
        assert run("a NOT IN (1, 3)", a=[2, 1]) == [True, False]


class TestCase:
    def test_first_match_wins(self):
        text = "CASE WHEN a < 2 THEN 'low' WHEN a < 4 THEN 'mid' " \
               "ELSE 'high' END"
        assert run(text, a=[1, 3, 9]) == ["low", "mid", "high"]

    def test_no_match_no_else_is_null(self):
        assert run("CASE WHEN a = 1 THEN 10 END", a=[1, 2]) == [10, None]

    def test_else_null_literal(self):
        assert run("CASE WHEN a = 1 THEN 10 ELSE NULL END",
                   a=[1, 2]) == [10, None]

    def test_numeric_branch_promotion(self):
        assert run("CASE WHEN a = 1 THEN 1 ELSE 0.5 END",
                   a=[1, 2]) == [1.0, 0.5]

    def test_mixed_branch_types_raise(self):
        with pytest.raises(TypeMismatchError):
            run("CASE WHEN a = 1 THEN 'x' ELSE 1 END", a=[1])

    def test_null_condition_does_not_fire(self):
        assert run("CASE WHEN a = 1 THEN 'y' ELSE 'n' END",
                   a=[None]) == ["n"]

    def test_case_charges_stats(self):
        from repro.engine.stats import StatsCollector
        frame = make_frame(a=[1, 2, 3])
        stats = StatsCollector()
        expr = parse_expression(
            "CASE WHEN a = 1 THEN 1 WHEN a = 2 THEN 2 END")
        evaluate(expr, frame, stats)
        assert stats.case_evaluations == 6  # 2 WHENs x 3 rows


class TestScalarFunctions:
    def test_abs(self):
        assert run("abs(a)", a=[-1, 2, None]) == [1, 2, None]

    def test_round_floor_ceil(self):
        assert run("round(a)", a=[1.4]) == [1.0]
        assert run("floor(a)", a=[1.9]) == [1.0]
        assert run("ceil(a)", a=[1.1]) == [2.0]

    def test_coalesce(self):
        assert run("coalesce(a, 0)", a=[1, None]) == [1, 0]

    def test_coalesce_strings(self):
        assert run("coalesce(a, 'x')", a=["y", None]) == ["y", "x"]

    def test_nullif(self):
        assert run("nullif(a, 1)", a=[1, 2]) == [None, 2]

    def test_unknown_function_raises(self):
        with pytest.raises(PlanningError):
            run("frobnicate(a)", a=[1])

    def test_aggregate_outside_query_raises(self):
        with pytest.raises(PlanningError):
            run("sum(a)", a=[1])

    def test_extended_syntax_rejected(self):
        with pytest.raises(PlanningError):
            run("vpct(a)", a=[1])


class TestCast:
    def test_int_to_real(self):
        assert run("CAST(a AS real)", a=[1]) == [1.0]

    def test_real_to_int_truncates(self):
        assert run("CAST(a AS int)", a=[2.7]) == [2]

    def test_numeric_to_varchar(self):
        assert run("CAST(a AS varchar)", a=[3]) == ["3"]


class TestFrame:
    def test_ambiguous_bare_reference(self):
        from repro.sql import ast
        frame = Frame(1)
        frame.add_column("x", ColumnData.from_values(SQLType.INTEGER,
                                                     [1]), binding="t1")
        frame.add_column("x", ColumnData.from_values(SQLType.INTEGER,
                                                     [2]), binding="t2")
        with pytest.raises(PlanningError):
            frame.resolve(ast.ColumnRef("x"))
        assert frame.resolve(ast.ColumnRef("x", table="t2"))[0] == 2

    def test_resolve_forgets_its_answers_when_a_column_is_added(self):
        # A resolved bare name is remembered; a second, different array
        # registered under it afterwards must make it ambiguous.
        from repro.sql import ast
        frame = Frame(1)
        frame.add_column("x", ColumnData.from_values(SQLType.INTEGER,
                                                     [1]), binding="t1")
        assert frame.resolve(ast.ColumnRef("x"))[0] == 1
        frame.add_column("x", ColumnData.from_values(SQLType.INTEGER,
                                                     [2]), binding="t2")
        with pytest.raises(PlanningError, match="ambiguous"):
            frame.resolve(ast.ColumnRef("x"))
        assert frame.resolve(ast.ColumnRef("x", table="t1"))[0] == 1

    def test_unknown_column_raises(self):
        from repro.sql import ast
        with pytest.raises(PlanningError):
            Frame(1).resolve(ast.ColumnRef("ghost"))

    def test_length_mismatch_raises(self):
        with pytest.raises(PlanningError):
            Frame(2).add_column(
                "a", ColumnData.from_values(SQLType.INTEGER, [1]))


class TestEvaluateScalar:
    def test_constant_expression(self):
        assert evaluate_scalar(parse_expression("1 + 2 * 3")) == 7

    def test_null_literal(self):
        assert evaluate_scalar(parse_expression("NULL")) is None
