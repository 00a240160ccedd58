"""Vertical partitioning of wide horizontal results.

Horizontal aggregations can exceed the DBMS's maximum column count
when the BY columns have many distinct combinations or several
horizontal terms share one query.  "The only way there is to solve
this limitation is by vertically partitioning the columns so that the
maximum number of columns is not exceeded.  Each partition table has
D1, ..., Dj as its primary key" (Section 3.2; also DMKD Section 3.6).
:func:`split_result_columns` computes the partition layout; the
horizontal generator emits one CREATE + INSERT per partition and a
final assembling SELECT that joins the partitions back on the keys.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.errors import PercentageQueryError

ColumnT = TypeVar("ColumnT")


def split_result_columns(n_keys: int, columns: Sequence[ColumnT],
                         max_columns: int) -> list[list[ColumnT]]:
    """Partition the non-key result columns so every stored table fits
    within ``max_columns`` (keys included in each partition).

    Returns at least one partition; raises when even a single non-key
    column cannot fit next to the keys.
    """
    capacity = max_columns - n_keys
    if capacity < 1:
        raise PercentageQueryError(
            f"the {n_keys} grouping columns alone reach the DBMS "
            f"column limit ({max_columns}); no room for results")
    if len(columns) <= capacity:
        return [list(columns)]
    partitions: list[list[ColumnT]] = []
    for start in range(0, len(columns), capacity):
        partitions.append(list(columns[start:start + capacity]))
    return partitions
