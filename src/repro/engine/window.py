"""Window functions: aggregates ``OVER (PARTITION BY ...)``.

This is the machinery behind the paper's baseline -- the ANSI OLAP
extensions (SQL/OLAP 1999 amendment) express a percentage as

    ``A / sum(A) OVER (PARTITION BY D1, ..., Dj)``

computed over the detail table.  The paper observes that "the optimizer
groups rows and computes aggregates using its own temporary tables and
indexes.  We have no control over these temporary tables."  To stay
faithful to how 2004-era engines (including Teradata's) evaluated
window functions, the operator here is **sort-based**: it materializes
a spool of the partition keys plus the argument, sorts it, computes
segment aggregates, and scatters the results back through the inverse
permutation.  The generated percentage plans, by contrast, control
their own (hash-aggregated) temporaries -- which is exactly the
asymmetry the paper's Table 6 measures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine import aggregates
from repro.engine.column import ColumnData
from repro.engine.groupby import encode_column, factorize
from repro.engine.stats import StatsCollector
from repro.obs import tracer as tracer_mod


def evaluate_window(func: str, arg: Optional[ColumnData],
                    partition_columns: list[ColumnData], n_rows: int,
                    stats: Optional[StatsCollector] = None) -> ColumnData:
    """Evaluate ``func(arg) OVER (PARTITION BY partition_columns)``.

    ``arg is None`` means ``count(*)``.  The result has one value per
    input row (the aggregate of that row's partition).
    """
    if stats is not None:
        # The window operator spools a partitioned copy of its input:
        # one read pass plus one write pass of the detail table.
        stats.add(rows_scanned=n_rows, rows_written=n_rows)
        tracer = tracer_mod.active_tracer()
        if tracer is not None and tracer.enabled:
            tracer.event("window-spool", kind="charge", func=func,
                         rows_scanned=n_rows, rows_written=n_rows)

    order = _spool_sort(partition_columns, arg, n_rows, stats)
    # Factorize the *original* partition columns (memo-served for
    # base-table keys) and permute the group ids into spool order; this
    # is equivalent to factorizing the taken columns because group ids
    # only identify equal-key rows.
    base = factorize(partition_columns, n_rows, stats)
    sorted_ids = base.group_ids[order]
    sorted_arg = arg.take(order) if arg is not None else None

    if sorted_arg is None:
        per_group = aggregates.count_star(sorted_ids, base.n_groups)
    else:
        per_group = aggregates.compute_aggregate(
            func, sorted_arg, False, sorted_ids, base.n_groups)

    sorted_result = per_group.take(sorted_ids.astype(np.int64))
    inverse = np.empty(n_rows, dtype=np.int64)
    inverse[order] = np.arange(n_rows, dtype=np.int64)
    return sorted_result.take(inverse)


def _spool_sort(partition_columns: list[ColumnData],
                arg: Optional[ColumnData], n_rows: int,
                stats: Optional[StatsCollector] = None) -> np.ndarray:
    """The sort phase of the spool: a stable lexicographic sort of the
    materialized partition keys (the write cost the stats counters
    charge; the sort itself is the wall-clock cost)."""
    if not partition_columns:
        return np.arange(n_rows, dtype=np.int64)
    keys = []
    for column in partition_columns:
        # Materialize the spool column (copy), then reduce it to
        # sortable codes.  The copy shares its memo, so a base-table
        # key is encoded once.
        keys.append(encode_column(column.copy(), stats).codes)
    if arg is not None:
        _ = arg.values.copy()  # the argument rides along in the spool
    return np.lexsort(tuple(reversed(keys))).astype(np.int64)
