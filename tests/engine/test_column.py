"""Unit tests for ColumnData storage."""

import numpy as np
import pytest

from repro.engine.column import ColumnData, EncodingMemo
from repro.engine.types import SQLType
from repro.errors import TypeMismatchError


class TestConstruction:
    def test_from_values_with_nulls(self):
        col = ColumnData.from_values(SQLType.INTEGER, [1, None, 3])
        assert col.to_pylist() == [1, None, 3]
        assert col.null_count() == 1

    def test_from_values_coerces(self):
        col = ColumnData.from_values(SQLType.REAL, [1, 2.5])
        assert col.to_pylist() == [1.0, 2.5]

    def test_from_values_bad_type_raises(self):
        with pytest.raises(TypeMismatchError):
            ColumnData.from_values(SQLType.INTEGER, ["x"])

    def test_from_arrays_bulk(self):
        col = ColumnData.from_arrays(SQLType.INTEGER,
                                     np.arange(5, dtype=np.int64))
        assert len(col) == 5
        assert col.null_count() == 0

    def test_all_null(self):
        col = ColumnData.all_null(SQLType.VARCHAR, 3)
        assert col.to_pylist() == [None, None, None]

    def test_constant(self):
        col = ColumnData.constant(SQLType.REAL, 2.5, 4)
        assert col.to_pylist() == [2.5] * 4

    def test_constant_zero_fast_path(self):
        col = ColumnData.constant(SQLType.INTEGER, 0, 3)
        assert col.to_pylist() == [0, 0, 0]

    def test_constant_none_is_all_null(self):
        col = ColumnData.constant(SQLType.REAL, None, 2)
        assert col.to_pylist() == [None, None]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ColumnData(SQLType.INTEGER, np.zeros(2, dtype=np.int64),
                       np.zeros(3, dtype=bool))


class TestAccess:
    def test_getitem_python_types(self):
        col = ColumnData.from_values(SQLType.INTEGER, [5])
        assert isinstance(col[0], int)
        col = ColumnData.from_values(SQLType.REAL, [5.0])
        assert isinstance(col[0], float)
        col = ColumnData.from_values(SQLType.BOOLEAN, [True])
        assert col[0] is True

    def test_null_positions_read_as_none(self):
        col = ColumnData.from_values(SQLType.VARCHAR, ["a", None])
        assert col[1] is None

    def test_iter_values(self):
        col = ColumnData.from_values(SQLType.INTEGER, [1, None])
        assert list(col.iter_values()) == [1, None]


class TestTransformations:
    def test_take(self):
        col = ColumnData.from_values(SQLType.INTEGER, [10, 20, 30])
        taken = col.take(np.array([2, 0]))
        assert taken.to_pylist() == [30, 10]

    def test_filter(self):
        col = ColumnData.from_values(SQLType.INTEGER, [1, 2, 3])
        kept = col.filter(np.array([True, False, True]))
        assert kept.to_pylist() == [1, 3]

    def test_cast_int_to_real(self):
        col = ColumnData.from_values(SQLType.INTEGER, [1, None])
        cast = col.cast(SQLType.REAL)
        assert cast.sql_type == SQLType.REAL
        assert cast.to_pylist() == [1.0, None]

    def test_cast_identity(self):
        col = ColumnData.from_values(SQLType.REAL, [1.0])
        assert col.cast(SQLType.REAL) is col

    def test_cast_varchar_to_int_raises(self):
        col = ColumnData.from_values(SQLType.VARCHAR, ["a"])
        with pytest.raises(TypeMismatchError):
            col.cast(SQLType.INTEGER)

    def test_concat(self):
        a = ColumnData.from_values(SQLType.INTEGER, [1])
        b = ColumnData.from_values(SQLType.INTEGER, [None, 3])
        merged = ColumnData.concat([a, b])
        assert merged.to_pylist() == [1, None, 3]

    def test_concat_type_mismatch_raises(self):
        a = ColumnData.from_values(SQLType.INTEGER, [1])
        b = ColumnData.from_values(SQLType.REAL, [1.0])
        with pytest.raises(TypeMismatchError):
            ColumnData.concat([a, b])

    def test_copy_is_independent(self):
        col = ColumnData.from_values(SQLType.INTEGER, [1, 2])
        cloned = col.copy()
        cloned.values[0] = 99
        assert col[0] == 1

    def test_copy_preserves_cache_token(self):
        col = ColumnData.from_values(SQLType.INTEGER, [1, 2])
        col.memo = EncodingMemo("t")
        assert col.copy().memo is col.memo

    def test_to_pylist_matches_getitem(self):
        # The bulk tolist() + null-mask patch must agree element-wise
        # with scalar access across types and NULL placements.
        cases = [
            ColumnData.from_values(SQLType.INTEGER, [1, None, 3, None]),
            ColumnData.from_values(SQLType.REAL, [None, 2.5, -1.0]),
            ColumnData.from_values(SQLType.VARCHAR,
                                   ["a", None, "", "z"]),
            ColumnData.from_values(SQLType.BOOLEAN,
                                   [True, None, False]),
        ]
        for col in cases:
            assert col.to_pylist() == [col[i] for i in range(len(col))]
            assert all(value is None or not hasattr(value, "dtype")
                       for value in col.to_pylist())
