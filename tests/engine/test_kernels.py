"""The aggregate kernels: numerical correctness against plain-numpy
references, and the SQL type each aggregate returns whatever the data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import kernels
from repro.engine.aggregates import compute_aggregate
from repro.engine.column import ColumnData
from repro.engine.types import SQLType
from repro.errors import TypeMismatchError


def _grouping(seed: int = 0, n_rows: int = 500, n_groups: int = 13):
    rng = np.random.default_rng(seed)
    group_ids = rng.integers(0, n_groups, size=n_rows)
    # Dense ranks: make sure every group occurs at least once.
    group_ids[:n_groups] = np.arange(n_groups)
    return group_ids.astype(np.int64), n_groups


def _numeric(seed: int = 1, n_rows: int = 500):
    rng = np.random.default_rng(seed)
    # Mixed magnitudes so float addition order actually matters.
    values = rng.normal(scale=1e3, size=n_rows) \
        + rng.normal(scale=1e-3, size=n_rows)
    nulls = rng.random(n_rows) < 0.15
    return values, nulls


class TestKernelCorrectness:
    def test_count_star(self):
        group_ids, n_groups = _grouping()
        state = kernels.kernel_count_star(group_ids, n_groups)
        expected = np.bincount(group_ids, minlength=n_groups)
        assert state.values.tolist() == expected.tolist()
        assert not state.nulls.any()
        assert state.sql_type == SQLType.INTEGER

    def test_count_skips_nulls(self):
        group_ids, n_groups = _grouping()
        _, nulls = _numeric()
        state = kernels.kernel_count(nulls, group_ids, n_groups)
        for g in range(n_groups):
            assert state.values[g] == int(
                np.sum((group_ids == g) & ~nulls))

    def test_count_distinct_matches_sets(self):
        group_ids, n_groups = _grouping()
        rng = np.random.default_rng(7)
        # Codes follow the EncodedColumn convention: 0 means NULL.
        codes = rng.integers(0, 6, size=len(group_ids)).astype(np.int64)
        state = kernels.kernel_count_distinct(codes, 6, group_ids,
                                              n_groups)
        for g in range(n_groups):
            present = codes[(group_ids == g) & (codes != 0)]
            assert state.values[g] == len(set(present.tolist()))

    def test_count_distinct_all_null(self):
        group_ids, n_groups = _grouping()
        codes = np.zeros(len(group_ids), dtype=np.int64)
        state = kernels.kernel_count_distinct(codes, 1, group_ids,
                                              n_groups)
        assert not state.values.any()

    def test_sum_avg_reference(self):
        group_ids, n_groups = _grouping()
        values, nulls = _numeric()
        sums = kernels.kernel_sum(values, nulls, SQLType.REAL,
                                  group_ids, n_groups)
        avgs = kernels.kernel_avg(values, nulls, SQLType.REAL,
                                  group_ids, n_groups)
        for g in range(n_groups):
            mask = (group_ids == g) & ~nulls
            if not mask.any():
                assert sums.nulls[g] and avgs.nulls[g]
                continue
            assert sums.values[g] == pytest.approx(values[mask].sum())
            assert avgs.values[g] == pytest.approx(values[mask].mean())

    def test_var_stdev_sample_semantics(self):
        group_ids = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        values = np.array([1.0, 2.0, 4.0, 5.0, 5.0, 9.0])
        nulls = np.zeros(6, dtype=bool)
        var = kernels.kernel_var_stdev("var", values, nulls,
                                       SQLType.REAL, group_ids, 3)
        std = kernels.kernel_var_stdev("stdev", values, nulls,
                                       SQLType.REAL, group_ids, 3)
        assert var.values[0] == pytest.approx(
            np.var([1.0, 2.0, 4.0], ddof=1))
        assert std.values[1] == pytest.approx(0.0)
        # Fewer than two non-NULL inputs -> NULL, not zero variance.
        assert var.nulls[2] and std.nulls[2]

    def test_min_max_with_empty_group(self):
        group_ids = np.array([0, 0, 2, 2], dtype=np.int64)
        values = np.array([4, -7, 3, 9], dtype=np.int64)
        nulls = np.zeros(4, dtype=bool)
        lo = kernels.kernel_min_max("min", values, nulls,
                                    SQLType.INTEGER, group_ids, 3)
        hi = kernels.kernel_min_max("max", values, nulls,
                                    SQLType.INTEGER, group_ids, 3)
        assert lo.values[0] == -7 and hi.values[0] == 4
        assert lo.nulls[1] and hi.nulls[1]   # group 1 is empty
        assert lo.values[2] == 3 and hi.values[2] == 9

    def test_min_max_sorted_varchar(self):
        group_ids = np.array([0, 0, 1, 1], dtype=np.int64)
        values = np.array(["pear", "apple", "fig", "kiwi"],
                          dtype=object)
        nulls = np.array([False, False, False, True])
        lo = kernels.kernel_min_max_sorted("min", values, nulls,
                                           group_ids, 2)
        hi = kernels.kernel_min_max_sorted("max", values, nulls,
                                           group_ids, 2)
        assert lo.values[0] == "apple" and hi.values[0] == "pear"
        assert lo.values[1] == "fig" and hi.values[1] == "fig"

    def test_numeric_kernels_reject_varchar(self):
        group_ids, n_groups = _grouping(n_rows=4, n_groups=2)
        with pytest.raises(TypeMismatchError):
            kernels.kernel_sum(np.zeros(4), np.zeros(4, dtype=bool),
                               SQLType.VARCHAR, group_ids, n_groups)


class TestResultSqlType:
    """The result type depends only on the function and the declared
    argument type, never on the data: an all-NULL argument (whose
    ``np.bincount`` reverts to int64 whatever its weights) still
    returns the type a populated one does."""

    SAMPLES = {SQLType.INTEGER: [3, 1, 2], SQLType.REAL: [0.5, 1.5, 2.5],
               SQLType.VARCHAR: ["b", "a", "c"]}

    @pytest.mark.parametrize("func,arg,expected", [
        ("count", SQLType.VARCHAR, SQLType.INTEGER),
        ("sum", SQLType.INTEGER, SQLType.INTEGER),
        ("sum", SQLType.REAL, SQLType.REAL),
        ("avg", SQLType.INTEGER, SQLType.REAL),
        ("var", SQLType.REAL, SQLType.REAL),
        ("stdev", SQLType.INTEGER, SQLType.REAL),
        ("min", SQLType.VARCHAR, SQLType.VARCHAR),
        ("max", SQLType.INTEGER, SQLType.INTEGER),
    ])
    def test_table(self, func, arg, expected):
        group_ids = np.array([0, 0, 1], dtype=np.int64)
        for values in (self.SAMPLES[arg], [None, None, None]):
            out = compute_aggregate(
                func, ColumnData.from_values(arg, values), False,
                group_ids, 2)
            assert out.sql_type == expected
