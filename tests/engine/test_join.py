"""Unit tests for the vectorized hash join."""

import numpy as np

from repro.engine.column import ColumnData
from repro.engine.join import join_indices, prepare_side, probe
from repro.engine.types import SQLType


def int_col(values):
    return ColumnData.from_values(SQLType.INTEGER, values)


def str_col(values):
    return ColumnData.from_values(SQLType.VARCHAR, values)


def pairs(left_idx, right_idx):
    return sorted(zip(left_idx.tolist(), right_idx.tolist()))


class TestInnerJoin:
    def test_one_to_one(self):
        left, right = join_indices([int_col([1, 2, 3])],
                                   [int_col([2, 3, 4])], outer=False)
        assert pairs(left, right) == [(1, 0), (2, 1)]

    def test_one_to_many(self):
        left, right = join_indices([int_col([7])],
                                   [int_col([7, 7, 8])], outer=False)
        assert pairs(left, right) == [(0, 0), (0, 1)]

    def test_many_to_many(self):
        left, right = join_indices([int_col([1, 1])],
                                   [int_col([1, 1])], outer=False)
        assert len(left) == 4

    def test_no_matches(self):
        left, right = join_indices([int_col([1])], [int_col([2])],
                                   outer=False)
        assert len(left) == 0

    def test_multi_column_keys(self):
        left, right = join_indices(
            [int_col([1, 1, 2]), str_col(["a", "b", "a"])],
            [int_col([1, 2]), str_col(["b", "a"])], outer=False)
        assert pairs(left, right) == [(1, 0), (2, 1)]

    def test_nulls_never_match(self):
        left, right = join_indices([int_col([None, 1])],
                                   [int_col([None, 1])], outer=False)
        assert pairs(left, right) == [(1, 1)]


class TestLeftOuterJoin:
    def test_unmatched_rows_get_minus_one(self):
        left, right = join_indices([int_col([1, 5])],
                                   [int_col([1])], outer=True)
        assert pairs(left, right) == [(0, 0), (1, -1)]

    def test_null_probe_key_unmatched(self):
        left, right = join_indices([int_col([None])],
                                   [int_col([None])], outer=True)
        assert pairs(left, right) == [(0, -1)]

    def test_every_probe_row_appears(self):
        left, right = join_indices([int_col([9, 9, 1])],
                                   [int_col([1])], outer=True)
        assert sorted(left.tolist()) == [0, 1, 2]


class TestPreparedReuse:
    def test_prepared_side_reused_across_probes(self):
        prepared = prepare_side([int_col([1, 2, 3])])
        left1, right1 = probe(prepared, [int_col([2])], outer=False)
        left2, right2 = probe(prepared, [int_col([3])], outer=False)
        assert right1.tolist() == [1]
        assert right2.tolist() == [2]

    def test_prepared_excludes_null_build_rows(self):
        prepared = prepare_side([int_col([None, 1])])
        assert prepared.n_rows == 2
        left, right = probe(prepared, [int_col([1])], outer=False)
        assert right.tolist() == [1]

    def test_empty_build_side(self):
        prepared = prepare_side([int_col([])])
        left, right = probe(prepared, [int_col([1, 2])], outer=True)
        assert right.tolist() == [-1, -1]

    def test_join_indices_is_prepare_then_probe(self):
        left_cols, right_cols = [int_col([1, 3, 1])], [int_col([1, 2, 1])]
        left, right = join_indices(left_cols, right_cols, outer=True)
        e_left, e_right = probe(prepare_side(right_cols), left_cols,
                                outer=True)
        assert left.tolist() == e_left.tolist()
        assert right.tolist() == e_right.tolist()
