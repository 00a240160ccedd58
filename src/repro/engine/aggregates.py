"""Vectorized aggregate functions over a :class:`Grouping`.

SQL semantics implemented here (and relied on by the paper's Vpct
definition, which "preserves the semantics of sum()"):

* ``sum/avg/min/max`` skip NULL inputs; a group whose inputs are all
  NULL (or empty, for the global group over an empty table) yields NULL.
* ``count(expr)`` counts non-NULL inputs; ``count(*)`` counts rows;
  both yield 0 -- never NULL -- for empty groups.
* ``count(DISTINCT expr)`` counts distinct non-NULL values.
* ``avg`` returns REAL; ``sum``/``min``/``max`` keep the input type
  (INTEGER sums stay INTEGER).

The numpy bodies live in :mod:`repro.engine.kernels`; this module
unwraps argument columns into raw buffers and dispatches on the
function name.  There is one aggregate path: every operator computes
one aggregate at a time, inline, through :func:`compute_aggregate`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine import kernels
from repro.engine.column import ColumnData
from repro.engine.groupby import encode_column
from repro.engine.stats import StatsCollector
from repro.engine.types import SQLType
from repro.errors import PlanningError


def count_star(group_ids: np.ndarray, n_groups: int) -> ColumnData:
    return kernels.kernel_count_star(group_ids, n_groups)


def compute_aggregate(func: str, arg: Optional[ColumnData],
                      distinct: bool, group_ids: np.ndarray,
                      n_groups: int,
                      stats: Optional[StatsCollector] = None) -> ColumnData:
    """Aggregate ``arg`` per group; ``arg`` is ``None`` for ``f(*)``.

    ``func`` is one of sum/count/avg/min/max/var/stdev; ``count``
    honors ``distinct`` (and, given the query's ``stats``, reuses the
    memoized encoding of a base-table argument).
    """
    if arg is None:
        if func == "count" and not distinct:
            return count_star(group_ids, n_groups)
        raise PlanningError(f"{func}(*) is not valid; only count(*) "
                            f"may take *")
    if func == "count":
        if distinct:
            encoded = encode_column(arg, stats)
            return kernels.kernel_count_distinct(
                encoded.codes, encoded.cardinality, group_ids, n_groups)
        return kernels.kernel_count(arg.nulls, group_ids, n_groups)
    if distinct:
        raise PlanningError(f"DISTINCT is only supported with count(), "
                            f"not {func}()")
    if func == "sum":
        return kernels.kernel_sum(arg.values, arg.nulls, arg.sql_type,
                                  group_ids, n_groups)
    if func == "avg":
        return kernels.kernel_avg(arg.values, arg.nulls, arg.sql_type,
                                  group_ids, n_groups)
    if func in ("min", "max"):
        if arg.sql_type == SQLType.VARCHAR:
            return kernels.kernel_min_max_sorted(
                func, arg.values, arg.nulls, group_ids, n_groups)
        return kernels.kernel_min_max(func, arg.values, arg.nulls,
                                      arg.sql_type, group_ids, n_groups)
    if func in ("var", "stdev"):
        return kernels.kernel_var_stdev(
            func, arg.values, arg.nulls, arg.sql_type, group_ids,
            n_groups)
    raise PlanningError(f"unknown aggregate function {func}()")
