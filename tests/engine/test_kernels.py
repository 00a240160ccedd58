"""The executor-neutral kernel layer: numerical correctness against
plain-numpy references, the morsel planner's alignment invariants, and
the bit-identity of a morsel-split + slice-merge against one serial
kernel call (the property the process backend's correctness rests on)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import kernels
from repro.engine.types import SQLType
from repro.errors import PlanningError, TypeMismatchError


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
        assert kernels.result_sql_type(func, arg) == expected

    def test_unknown_function(self):
        with pytest.raises(PlanningError):
            kernels.result_sql_type("median", SQLType.REAL)


class TestPlanMorsels:
    def test_none_when_too_small(self):
        group_ids, n_groups = _grouping(n_rows=50, n_groups=5)
        assert kernels.plan_morsels(group_ids, n_groups, 50) is None
        assert kernels.plan_morsels(group_ids, n_groups, 0) is None
        assert kernels.plan_morsels(
            np.empty(0, dtype=np.int64), 0, 8) is None

    def test_none_for_single_dominant_group(self):
        # One group swallows everything: unsplittable, stay serial.
        group_ids = np.zeros(100, dtype=np.int64)
        assert kernels.plan_morsels(group_ids, 1, 10) is None

    def test_alignment_invariants(self):
        group_ids, n_groups = _grouping(n_rows=1000, n_groups=37)
        plan = kernels.plan_morsels(group_ids, n_groups, 64)
        assert plan is not None and plan.degree >= 2
        # Every row exactly once, morsels contiguous in rows AND groups.
        assert sorted(plan.order.tolist()) == list(range(1000))
        assert plan.morsels[0].lo == 0 and plan.morsels[0].g_lo == 0
        assert plan.morsels[-1].hi == 1000
        assert plan.morsels[-1].g_hi == n_groups
        for a, b in zip(plan.morsels, plan.morsels[1:]):
            assert a.hi == b.lo and a.g_hi == b.g_lo
        for m in plan.morsels:
            span = plan.sorted_group_ids[m.lo:m.hi]
            # Group-aligned cuts: a morsel holds complete groups only.
            assert span.min() == m.g_lo and span.max() == m.g_hi - 1

    def test_stable_within_group(self):
        group_ids, n_groups = _grouping(n_rows=300, n_groups=7)
        plan = kernels.plan_morsels(group_ids, n_groups, 32)
        for g in range(n_groups):
            rows = plan.order[plan.sorted_group_ids == g]
            # Original relative order preserved -> serial addend order.
            assert rows.tolist() == sorted(rows.tolist())


class TestMorselMergeBitIdentity:
    """Splitting by morsels and slice-merging the partials must equal
    one serial kernel call *bitwise* -- the morsel pipeline's whole
    correctness argument in miniature."""

    @pytest.mark.parametrize("func", ["sum", "avg", "var", "stdev"])
    def test_float_aggregates(self, func):
        group_ids, n_groups = _grouping(n_rows=2000, n_groups=19)
        values, nulls = _numeric(n_rows=2000)

        def run(v, n, g, k):
            if func == "sum":
                return kernels.kernel_sum(v, n, SQLType.REAL, g, k)
            if func == "avg":
                return kernels.kernel_avg(v, n, SQLType.REAL, g, k)
            return kernels.kernel_var_stdev(func, v, n, SQLType.REAL,
                                            g, k)

        serial = run(values, nulls, group_ids, n_groups)
        plan = kernels.plan_morsels(group_ids, n_groups, 128)
        assert plan is not None
        merged = np.zeros(n_groups, dtype=np.float64)
        merged_nulls = np.zeros(n_groups, dtype=bool)
        for m in plan.morsels:
            rows = plan.order[m.lo:m.hi]
            local = plan.sorted_group_ids[m.lo:m.hi] - m.g_lo
            state = run(values[rows], nulls[rows], local, m.n_groups)
            merged[m.g_lo:m.g_hi] = state.values
            merged_nulls[m.g_lo:m.g_hi] = state.nulls
        # Bitwise equality, not approx: same addends in same order.
        assert np.array_equal(merged, serial.values)
        assert np.array_equal(merged_nulls, serial.nulls)
