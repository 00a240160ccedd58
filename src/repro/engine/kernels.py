"""Executor-neutral aggregate kernels and morsel planning.

This is the operator layer every execution backend shares.  A *kernel*
is a pure function over raw numpy buffers::

    (value/null buffers, group_ids, n_groups) -> PartialAggState

with no engine objects in its signature: no ``ColumnData``, no frames,
no catalog.  The inline path (:mod:`repro.engine.aggregates`) and the
morsel tasks of the thread and process backends
(:mod:`repro.engine.morsels`) all call the *same* kernel bodies, so a
numerical behavior exists exactly once -- including the dtype edge
cases the differential fuzzer caught (an empty ``np.bincount`` reverts
to int64 regardless of its weights dtype, which is why merge buffers
are always allocated from the result SQL type, never from a partial's
array).

**Bit-identity across backends.**  Floating-point addition is not
associative, so parallel execution is only bit-identical to serial
execution if every group's addends are accumulated in the serial
order.  :func:`plan_morsels` -- the only work-partitioning scheme --
guarantees that: morsels are contiguous ranges of the *stable
group-sorted* row permutation with cuts snapped to group boundaries,
so every group lives wholly inside one morsel and its rows keep their
original relative order.  The merge is then a contiguous slice
assignment -- no re-aggregation, no reordering, no rounding drift.

A consequence worth stating: one giant group is unsplittable (it is a
single morsel).  Skew across *many* groups is what morsels fix --
workers pull roughly equal row ranges regardless of how unevenly
groups are sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine import cancel
from repro.engine.types import SQLType
from repro.errors import PlanningError, TypeMismatchError


@dataclass
class PartialAggState:
    """One kernel's output for one (morsel, aggregate) pair.

    Plain data -- numpy arrays plus the result's SQL type -- so it
    pickles cheaply across a process boundary (size is O(groups), not
    O(rows)).  ``values``/``nulls`` cover a *contiguous* group range;
    the merge is ``out[g_lo:g_hi] = partial``.
    """

    sql_type: SQLType
    values: np.ndarray
    nulls: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def result_sql_type(func: str, arg_type: Optional[SQLType]) -> SQLType:
    """The SQL type ``func`` over an ``arg_type`` argument returns.

    This depends only on the function and the declared argument type,
    never on the data -- which is what lets a parallel merge allocate
    its buffer before any partial arrives (and why an all-NULL
    partial's int64 ``bincount`` artifact cannot poison the result
    dtype).
    """
    if func == "count":
        return SQLType.INTEGER
    if func in ("avg", "var", "stdev"):
        return SQLType.REAL
    if func == "sum":
        return SQLType.INTEGER if arg_type == SQLType.INTEGER \
            else SQLType.REAL
    if func in ("min", "max"):
        if arg_type is None:
            return SQLType.REAL
        return arg_type
    raise PlanningError(f"unknown aggregate function {func}()")


# ----------------------------------------------------------------------
# Kernels.  Each body is the single implementation of its aggregate's
# numpy sequence; repro.engine.aggregates wraps these for the inline
# path, repro.engine.morsels.run_morsel for morsel tasks.
# ----------------------------------------------------------------------
def kernel_count_star(group_ids: np.ndarray,
                      n_groups: int) -> PartialAggState:
    counts = np.bincount(group_ids, minlength=n_groups)
    return PartialAggState(SQLType.INTEGER, counts.astype(np.int64),
                           np.zeros(n_groups, dtype=bool))


def kernel_count(nulls: np.ndarray, group_ids: np.ndarray,
                 n_groups: int) -> PartialAggState:
    valid = ~nulls
    counts = np.bincount(group_ids[valid], minlength=n_groups)
    return PartialAggState(SQLType.INTEGER, counts.astype(np.int64),
                           np.zeros(n_groups, dtype=bool))


def kernel_count_distinct(codes: np.ndarray, cardinality: int,
                          group_ids: np.ndarray,
                          n_groups: int) -> PartialAggState:
    """count(DISTINCT x) over pre-computed dictionary codes.

    ``codes`` follow the :class:`~repro.engine.groupby.EncodedColumn`
    convention (0 = NULL); encoding happens on the coordinator so the
    encoding cache is charged identically on every backend.
    """
    valid = codes != 0
    if not valid.any():
        zeros = np.zeros(n_groups, dtype=np.int64)
        return PartialAggState(SQLType.INTEGER, zeros,
                               np.zeros(n_groups, dtype=bool))
    pairs = group_ids[valid] * np.int64(cardinality) + codes[valid]
    unique_pairs = np.unique(pairs)
    owner = unique_pairs // np.int64(cardinality)
    counts = np.bincount(owner, minlength=n_groups)
    return PartialAggState(SQLType.INTEGER, counts.astype(np.int64),
                           np.zeros(n_groups, dtype=bool))


def _require_numeric(func: str, sql_type: Optional[SQLType]) -> None:
    if sql_type is None or not sql_type.is_numeric:
        raise TypeMismatchError(
            f"{func}() requires a numeric argument, got {sql_type}")


def kernel_sum(values: np.ndarray, nulls: np.ndarray,
               sql_type: Optional[SQLType], group_ids: np.ndarray,
               n_groups: int) -> PartialAggState:
    _require_numeric("sum", sql_type)
    valid = ~nulls
    weights = values.astype(np.float64)
    sums = np.bincount(group_ids[valid], weights=weights[valid],
                       minlength=n_groups)
    non_null = np.bincount(group_ids[valid], minlength=n_groups)
    out_nulls = non_null == 0
    if sql_type == SQLType.INTEGER:
        out = np.rint(sums).astype(np.int64)
        return PartialAggState(SQLType.INTEGER, out, out_nulls)
    return PartialAggState(SQLType.REAL, sums, out_nulls)


def kernel_avg(values: np.ndarray, nulls: np.ndarray,
               sql_type: Optional[SQLType], group_ids: np.ndarray,
               n_groups: int) -> PartialAggState:
    _require_numeric("avg", sql_type)
    valid = ~nulls
    weights = values.astype(np.float64)
    sums = np.bincount(group_ids[valid], weights=weights[valid],
                       minlength=n_groups)
    non_null = np.bincount(group_ids[valid], minlength=n_groups)
    out_nulls = non_null == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(out_nulls, 0.0,
                       sums / np.where(out_nulls, 1, non_null))
    return PartialAggState(SQLType.REAL, out, out_nulls)


def kernel_var_stdev(func: str, values: np.ndarray, nulls: np.ndarray,
                     sql_type: Optional[SQLType], group_ids: np.ndarray,
                     n_groups: int) -> PartialAggState:
    """Sample variance / standard deviation (n - 1 denominator); NULL
    for groups with fewer than two non-NULL inputs."""
    _require_numeric(func, sql_type)
    valid = ~nulls
    weights = values.astype(np.float64)
    counts = np.bincount(group_ids[valid], minlength=n_groups)
    sums = np.bincount(group_ids[valid], weights=weights[valid],
                       minlength=n_groups)
    squares = np.bincount(group_ids[valid],
                          weights=weights[valid] ** 2,
                          minlength=n_groups)
    out_nulls = counts < 2
    safe_counts = np.where(out_nulls, 2, counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = (squares - sums ** 2 / safe_counts) \
            / (safe_counts - 1)
    variance = np.maximum(variance, 0.0)  # guard tiny negatives
    if func == "stdev":
        variance = np.sqrt(variance)
    variance = np.where(out_nulls, 0.0, variance)
    return PartialAggState(SQLType.REAL, variance, out_nulls)


def kernel_min_max(func: str, values: np.ndarray, nulls: np.ndarray,
                   sql_type: SQLType, group_ids: np.ndarray,
                   n_groups: int) -> PartialAggState:
    """min/max for the sentinel-friendly types (numeric, boolean).

    VARCHAR goes through :func:`kernel_min_max_sorted` -- object
    arrays support neither sentinels nor shared memory.
    """
    valid = ~nulls
    out_nulls = np.bincount(group_ids[valid], minlength=n_groups) == 0
    if func == "min":
        out = np.full(n_groups, _max_sentinel(sql_type),
                      dtype=sql_type.numpy_dtype)
        np.minimum.at(out, group_ids[valid], values[valid])
    else:
        out = np.full(n_groups, _min_sentinel(sql_type),
                      dtype=sql_type.numpy_dtype)
        np.maximum.at(out, group_ids[valid], values[valid])
    out[out_nulls] = 0
    return PartialAggState(sql_type, out, out_nulls)


def kernel_min_max_sorted(func: str, values: np.ndarray,
                          nulls: np.ndarray, group_ids: np.ndarray,
                          n_groups: int) -> PartialAggState:
    """min/max for VARCHAR via a (group, value) sort."""
    valid = ~nulls
    out_nulls = np.bincount(group_ids[valid], minlength=n_groups) == 0
    ids = group_ids[valid]
    present = values[valid]
    value_order = np.argsort(present, kind="stable")
    order = value_order[np.argsort(ids[value_order], kind="stable")]
    sorted_ids = ids[order]
    boundaries = np.ones(len(order), dtype=bool)
    if func == "min":
        boundaries[1:] = sorted_ids[1:] != sorted_ids[:-1]
    else:
        boundaries[:-1] = sorted_ids[:-1] != sorted_ids[1:]
    pick_ids = sorted_ids[boundaries]
    pick_values = present[order][boundaries]
    out = np.full(n_groups, "", dtype=object)
    out[pick_ids] = pick_values
    return PartialAggState(SQLType.VARCHAR, out, out_nulls)


def _max_sentinel(sql_type: SQLType):
    if sql_type == SQLType.INTEGER:
        return np.iinfo(np.int64).max
    return np.inf


def _min_sentinel(sql_type: SQLType):
    if sql_type == SQLType.INTEGER:
        return np.iinfo(np.int64).min
    return -np.inf


# ----------------------------------------------------------------------
# Morsel planning (the one work-partitioning scheme)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Morsel:
    """One unit of worker work: a contiguous range of the group-sorted
    row permutation covering the *complete* groups ``[g_lo, g_hi)``.

    ``lo``/``hi`` index into :attr:`MorselPlan.order`; a worker's rows
    are ``order[lo:hi]`` and its local group ids are
    ``sorted_group_ids[lo:hi] - g_lo``.
    """

    lo: int
    hi: int
    g_lo: int
    g_hi: int

    @property
    def n_rows(self) -> int:
        return self.hi - self.lo

    @property
    def n_groups(self) -> int:
        return self.g_hi - self.g_lo


@dataclass
class MorselPlan:
    """Group-aligned morsels over one grouping.

    ``order`` is the stable argsort of the group ids: rows sorted by
    group, original order preserved within each group.  Every morsel's
    cut sits on a group boundary, so the parallel merge is a slice
    assignment and float accumulation replays the serial addend order
    (see the module docstring).
    """

    order: np.ndarray             # int64 row permutation, group-sorted
    sorted_group_ids: np.ndarray  # group_ids[order]
    morsels: list[Morsel]

    @property
    def degree(self) -> int:
        return len(self.morsels)


def plan_morsels(group_ids: np.ndarray, n_groups: int,
                 morsel_rows: int) -> Optional[MorselPlan]:
    """Split rows into group-aligned morsels of roughly ``morsel_rows``.

    Returns ``None`` when the input cannot usefully split: fewer than
    two morsels would result (small input, or one dominant group
    swallowing everything).  The caller then stays serial.
    """
    n_rows = len(group_ids)
    if n_rows == 0 or n_groups <= 0 or morsel_rows < 1 \
            or n_rows <= morsel_rows:
        return None
    order = np.argsort(group_ids, kind="stable").astype(np.int64)
    sorted_ids = group_ids[order]
    # Position where each group starts in sorted-row space.  Group ids
    # are dense ranks (every id in [0, n_groups) occurs), so this is
    # total: bounds[g] .. bounds[g+1] is exactly group g's row range.
    bounds = np.empty(n_groups + 1, dtype=np.int64)
    bounds[:n_groups] = np.searchsorted(sorted_ids,
                                        np.arange(n_groups))
    bounds[n_groups] = n_rows
    morsels: list[Morsel] = []
    g = 0
    while g < n_groups:
        # One safepoint per morsel planned: a cancel lands before any
        # dispatch or shared-memory export, so nothing has to be
        # unwound yet.
        cancel.checkpoint("morsel")
        target = bounds[g] + morsel_rows
        g_next = int(np.searchsorted(bounds, target, side="left"))
        g_next = max(g_next, g + 1)       # always advance a full group
        g_next = min(g_next, n_groups)
        morsels.append(Morsel(lo=int(bounds[g]), hi=int(bounds[g_next]),
                              g_lo=g, g_hi=g_next))
        g = g_next
    if len(morsels) < 2:
        return None
    return MorselPlan(order=order, sorted_group_ids=sorted_ids,
                      morsels=morsels)
