"""The numpy bodies of the grouped aggregates.

A *kernel* is a pure function over raw buffers::

    (value/null buffers, group_ids, n_groups) -> ColumnData

with no frames, catalog or encoding memos in its signature.
:mod:`repro.engine.aggregates` unwraps argument columns and dispatches
on the function name; every operator that aggregates (GROUP BY, the
pivot kernel, grouping sets, windows, view maintenance) reaches these
bodies through it, so a numerical behavior exists exactly once --
including the dtype edge cases the differential fuzzer caught (an
empty ``np.bincount`` reverts to int64 regardless of its weights
dtype, so every kernel states its result's SQL type itself).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.column import ColumnData
from repro.engine.groupby import counting_pass_fits
from repro.engine.types import SQLType
from repro.errors import TypeMismatchError


# ----------------------------------------------------------------------
# Kernels.  Each body is the single implementation of its aggregate's
# numpy sequence.
# ----------------------------------------------------------------------
def kernel_count_star(group_ids: np.ndarray,
                      n_groups: int) -> ColumnData:
    counts = np.bincount(group_ids, minlength=n_groups)
    return ColumnData(SQLType.INTEGER, counts.astype(np.int64),
                      np.zeros(n_groups, dtype=bool))


def _non_null(nulls: np.ndarray, group_ids: np.ndarray,
              values: Optional[np.ndarray] = None):
    """``(group_ids, values)`` of the rows that are not NULL -- the
    arrays themselves when no row is, which is the common case and
    saves a row-length copy of each per aggregate."""
    if not nulls.any():
        return group_ids, values
    valid = ~nulls
    return group_ids[valid], None if values is None else values[valid]


def kernel_count(nulls: np.ndarray, group_ids: np.ndarray,
                 n_groups: int) -> ColumnData:
    ids, _ = _non_null(nulls, group_ids)
    counts = np.bincount(ids, minlength=n_groups)
    return ColumnData(SQLType.INTEGER, counts.astype(np.int64),
                      np.zeros(n_groups, dtype=bool))


def kernel_count_distinct(codes: np.ndarray, cardinality: int,
                          group_ids: np.ndarray,
                          n_groups: int) -> ColumnData:
    """count(DISTINCT x) over pre-computed dictionary codes.

    ``codes`` follow the :class:`~repro.engine.groupby.EncodedColumn`
    convention (0 = NULL); the caller encodes, so a memo read is
    charged there.
    """
    if counting_pass_fits(n_groups * cardinality, len(codes)):
        # The (group, code) space is small for this many rows: mark the
        # pairs that occur and count each group's row, NULL slot aside.
        seen = np.zeros((n_groups, cardinality), dtype=bool)
        seen[group_ids, codes] = True
        counts = seen[:, 1:].sum(axis=1, dtype=np.int64)
    else:
        valid = codes != 0
        pairs = group_ids[valid] * np.int64(cardinality) + codes[valid]
        owner = np.unique(pairs) // np.int64(cardinality)
        counts = np.bincount(owner, minlength=n_groups).astype(np.int64)
    return ColumnData(SQLType.INTEGER, counts,
                      np.zeros(n_groups, dtype=bool))


def _require_numeric(func: str, sql_type: Optional[SQLType]) -> None:
    if sql_type is None or not sql_type.is_numeric:
        raise TypeMismatchError(
            f"{func}() requires a numeric argument, got {sql_type}")


def kernel_sum(values: np.ndarray, nulls: np.ndarray,
               sql_type: Optional[SQLType], group_ids: np.ndarray,
               n_groups: int) -> ColumnData:
    _require_numeric("sum", sql_type)
    ids, weights = _non_null(nulls, group_ids,
                             values.astype(np.float64, copy=False))
    sums = np.bincount(ids, weights=weights, minlength=n_groups)
    non_null = np.bincount(ids, minlength=n_groups)
    out_nulls = non_null == 0
    if sql_type == SQLType.INTEGER:
        out = np.rint(sums).astype(np.int64)
        return ColumnData(SQLType.INTEGER, out, out_nulls)
    return ColumnData(SQLType.REAL, sums, out_nulls)


def kernel_avg(values: np.ndarray, nulls: np.ndarray,
               sql_type: Optional[SQLType], group_ids: np.ndarray,
               n_groups: int) -> ColumnData:
    _require_numeric("avg", sql_type)
    ids, weights = _non_null(nulls, group_ids,
                             values.astype(np.float64, copy=False))
    sums = np.bincount(ids, weights=weights, minlength=n_groups)
    non_null = np.bincount(ids, minlength=n_groups)
    out_nulls = non_null == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(out_nulls, 0.0,
                       sums / np.where(out_nulls, 1, non_null))
    return ColumnData(SQLType.REAL, out, out_nulls)


def kernel_var_stdev(func: str, values: np.ndarray, nulls: np.ndarray,
                     sql_type: Optional[SQLType], group_ids: np.ndarray,
                     n_groups: int) -> ColumnData:
    """Sample variance / standard deviation (n - 1 denominator); NULL
    for groups with fewer than two non-NULL inputs."""
    _require_numeric(func, sql_type)
    ids, weights = _non_null(nulls, group_ids,
                             values.astype(np.float64, copy=False))
    counts = np.bincount(ids, minlength=n_groups)
    sums = np.bincount(ids, weights=weights, minlength=n_groups)
    squares = np.bincount(ids, weights=weights ** 2,
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
    return ColumnData(SQLType.REAL, variance, out_nulls)


def kernel_min_max(func: str, values: np.ndarray, nulls: np.ndarray,
                   sql_type: SQLType, group_ids: np.ndarray,
                   n_groups: int) -> ColumnData:
    """min/max for the sentinel-friendly types (numeric, boolean).

    VARCHAR goes through :func:`kernel_min_max_sorted` -- object
    arrays have no sentinels.
    """
    ids, present = _non_null(nulls, group_ids, values)
    out_nulls = np.bincount(ids, minlength=n_groups) == 0
    if func == "min":
        out = np.full(n_groups, _max_sentinel(sql_type),
                      dtype=sql_type.numpy_dtype)
        np.minimum.at(out, ids, present)
    else:
        out = np.full(n_groups, _min_sentinel(sql_type),
                      dtype=sql_type.numpy_dtype)
        np.maximum.at(out, ids, present)
    out[out_nulls] = 0
    return ColumnData(sql_type, out, out_nulls)


def kernel_min_max_sorted(func: str, values: np.ndarray,
                          nulls: np.ndarray, group_ids: np.ndarray,
                          n_groups: int) -> ColumnData:
    """min/max for VARCHAR via a (group, value) sort."""
    ids, present = _non_null(nulls, group_ids, values)
    out_nulls = np.bincount(ids, minlength=n_groups) == 0
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
    return ColumnData(SQLType.VARCHAR, out, out_nulls)


def kernel_percentage(numerators: ColumnData,
                      totals: ColumnData) -> ColumnData:
    """``numerators / totals`` row by row, as REAL: NULL when either
    side is NULL or the total is 0 -- the paper's Vpct/Hpct division,
    which never divides by zero."""
    numerator = np.asarray(numerators.values, dtype=np.float64)
    total = np.asarray(totals.values, dtype=np.float64)
    nulls = numerators.nulls | totals.nulls | (total == 0)
    with np.errstate(divide="ignore", invalid="ignore",
                     over="ignore"):
        values = np.where(nulls, 0.0,
                          numerator / np.where(nulls, 1.0, total))
    return ColumnData(SQLType.REAL, values, nulls)


def _max_sentinel(sql_type: SQLType):
    if sql_type == SQLType.INTEGER:
        return np.iinfo(np.int64).max
    return np.inf


def _min_sentinel(sql_type: SQLType):
    if sql_type == SQLType.INTEGER:
        return np.iinfo(np.int64).min
    return -np.inf
