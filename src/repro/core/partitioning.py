"""Vertical partitioning of wide horizontal results.

Horizontal aggregations can exceed the DBMS's maximum column count
when the BY columns have many distinct combinations or several
horizontal terms share one query.  "The only way there is to solve
this limitation is by vertically partitioning the columns so that the
maximum number of columns is not exceeded.  Each partition table has
D1, ..., Dj as its primary key" (Section 3.2; also DMKD Section 3.6).
:func:`split_result_columns` computes the partition layout; the
horizontal generators emit one CREATE + INSERT per partition of the
tables :func:`partition_tables` names, and :func:`assemble_partitions`
the final SELECT that joins the partitions back on the keys.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.core import common
from repro.core.plan import GeneratedPlan, temp_name
from repro.errors import PercentageQueryError
from repro.sql import ast

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
    return [list(columns[start:start + capacity])
            for start in range(0, max(len(columns), 1), capacity)]


def partition_tables(prefix: str, n_partitions: int,
                     limit: int) -> list[str]:
    """The FH tables: ``{prefix}_fh`` alone, else ``{prefix}_fhN``
    (:func:`~repro.core.plan.temp_name` under the identifier limit
    ``limit``)."""
    if n_partitions == 1:
        return [temp_name(prefix, "fh", limit)]
    return [temp_name(prefix, f"fh{i + 1}", limit)
            for i in range(n_partitions)]


def assemble_partitions(result: GeneratedPlan, tables: list[str],
                        names: Sequence[Sequence[str]],
                        keys: Sequence[str], *,
                        stand_in: bool = False) -> None:
    """Point ``result`` at the FH partitions ``tables`` (non-key columns
    ``names``): the one table, or the SELECT joining them back
    null-safely on their ``keys``.  The result shows the keys unless
    they are a ``stand_in`` (the constant key of an Hagg query without
    GROUP BY).  Only the transient result may exceed the column
    limit."""
    first = tables[0]
    shown = () if stand_in else keys
    if len(tables) == 1:
        result.result_table = first
        result.result_statement = \
            common.select(common.cols(names[0]), common.tables(first)) \
            if stand_in else common.select_all(first, keys)
        return
    selects = list(common.cols(shown, first))
    for table, chunk in zip(tables, names):
        selects.extend(ast.ColumnRef(name, table) for name in chunk)
    conditions: list[ast.Expr] = []
    for other in tables[1:]:
        conditions += common.null_safe_equalities(first, other, keys)
    result.result_table = None
    result.result_statement = common.select(
        selects, common.tables(*tables), common.conjunction(conditions),
        order_by=common.cols(shown))
