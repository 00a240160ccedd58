"""Unit tests for vectorized aggregates, especially NULL semantics."""

import numpy as np
import pytest

from repro.engine.aggregates import compute_aggregate, count_star
from repro.engine.column import ColumnData
from repro.engine.types import SQLType
from repro.errors import PlanningError, TypeMismatchError


def int_col(values):
    return ColumnData.from_values(SQLType.INTEGER, values)


def real_col(values):
    return ColumnData.from_values(SQLType.REAL, values)


def str_col(values):
    return ColumnData.from_values(SQLType.VARCHAR, values)


GROUPS = np.array([0, 0, 1, 1, 2], dtype=np.int64)


def agg(func, col, distinct=False, groups=GROUPS, n_groups=3):
    return compute_aggregate(func, col, distinct, groups,
                             n_groups).to_pylist()


class TestSum:
    def test_basic(self):
        assert agg("sum", int_col([1, 2, 3, 4, 5])) == [3, 7, 5]

    def test_skips_nulls(self):
        assert agg("sum", int_col([1, None, None, 4, None])) == \
            [1, 4, None]

    def test_all_null_group_is_null(self):
        assert agg("sum", int_col([None, None, 1, 1, 1])) == \
            [None, 2, 1]

    def test_integer_sum_stays_integer(self):
        result = compute_aggregate("sum", int_col([1, 2, 3, 4, 5]),
                                   False, GROUPS, 3)
        assert result.sql_type == SQLType.INTEGER

    def test_real_sum(self):
        assert agg("sum", real_col([0.5, 0.25, 1.0, 1.0, 0.0])) == \
            [0.75, 2.0, 0.0]

    def test_varchar_raises(self):
        with pytest.raises(TypeMismatchError):
            agg("sum", str_col(["a"] * 5))


class TestCount:
    def test_count_star(self):
        assert count_star(GROUPS, 3).to_pylist() == [2, 2, 1]

    def test_count_skips_nulls(self):
        assert agg("count", int_col([1, None, None, None, 5])) == \
            [1, 0, 1]

    def test_count_distinct(self):
        col = int_col([7, 7, 7, 8, None])
        assert agg("count", col, distinct=True) == [1, 2, 0]

    def test_count_distinct_strings(self):
        col = str_col(["a", "b", "a", "a", "c"])
        assert agg("count", col, distinct=True) == [2, 1, 1]

    def test_count_empty_group_is_zero_not_null(self):
        groups = np.array([0, 0], dtype=np.int64)
        result = compute_aggregate("count", int_col([1, 2]), False,
                                   groups, 2)
        assert result.to_pylist() == [2, 0]


class TestAvg:
    def test_basic(self):
        assert agg("avg", int_col([1, 3, 10, 20, 7])) == [2.0, 15.0, 7.0]

    def test_nulls_excluded_from_denominator(self):
        assert agg("avg", int_col([4, None, 1, 3, None])) == \
            [4.0, 2.0, None]

    def test_returns_real(self):
        result = compute_aggregate("avg", int_col([1, 2, 3, 4, 5]),
                                   False, GROUPS, 3)
        assert result.sql_type == SQLType.REAL


class TestMinMax:
    def test_min_max_int(self):
        col = int_col([5, 2, -1, 8, 0])
        assert agg("min", col) == [2, -1, 0]
        assert agg("max", col) == [5, 8, 0]

    def test_nulls_skipped(self):
        col = int_col([None, 2, None, None, None])
        assert agg("min", col) == [2, None, None]

    def test_varchar(self):
        col = str_col(["pear", "apple", "fig", "kiwi", "a"])
        assert agg("min", col) == ["apple", "fig", "a"]
        assert agg("max", col) == ["pear", "kiwi", "a"]

    def test_varchar_with_nulls(self):
        col = str_col([None, "b", None, None, "z"])
        assert agg("max", col) == ["b", None, "z"]


class TestErrors:
    def test_unknown_function(self):
        with pytest.raises(PlanningError):
            agg("median", int_col([1, 2, 3, 4, 5]))

    def test_distinct_only_for_count(self):
        with pytest.raises(PlanningError,
                           match=r"DISTINCT is only supported with "
                                 r"count\(\), not sum\(\)"):
            agg("sum", int_col([1, 2, 3, 4, 5]), distinct=True)

    def test_only_count_takes_star(self):
        """``arg=None`` is ``f(*)``: count(*) counts rows, anything
        else -- count(DISTINCT *) included -- is a planning error."""
        assert agg("count", None) == [2, 2, 1]
        for func, distinct in (("sum", False), ("min", False),
                               ("count", True)):
            with pytest.raises(PlanningError,
                               match=rf"{func}\(\*\) is not valid"):
                agg(func, None, distinct)
