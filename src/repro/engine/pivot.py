"""Hash-dispatch evaluation of disjoint pivot-style CASE aggregations.

Both papers observe that queries of the shape

    sum(CASE WHEN Dh = vh1 AND ... AND Dk = vk1 THEN A ELSE null END),
    ...
    sum(CASE WHEN Dh = vhN AND ... AND Dk = vkN THEN A ELSE null END)

force the evaluator to test ``N`` conjunctions per input row even
though the conditions are disjoint -- each row falls into exactly one
result column -- and propose reducing the per-row cost from ``O(N)`` to
``O(1)`` "using a hash table that maps one conjunction to one result
column" (DMKD Section 3.5).

This module is that proposed optimizer improvement.  When the executor
runs with ``case_dispatch="hash"``, it detects families of aggregate
terms matching the pattern, factorizes the input *once* over
(group keys x pivot columns) -- a vectorized stand-in for the per-row
hash probe -- aggregates each cell once, and scatters cell values into
the per-term result columns.  Only one ``case_evaluations`` charge per
row is recorded, versus ``N`` per row for the linear strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.engine import cancel, faults
from repro.engine.column import ColumnData
from repro.engine.encoding_cache import EncodingCache
from repro.engine.expressions import Frame, evaluate
from repro.engine.groupby import Grouping, factorize, first_positions
from repro.engine.planner import split_conjuncts
from repro.engine.stats import StatsCollector
from repro.engine.types import SQLType
from repro.sql import ast


@dataclass
class _PivotTerm:
    """One aggregate select term matching the pivot pattern."""

    index: int                      # position in agg_specs
    func: str
    literals: dict[Any, Any]        # column norm-key -> literal value
    else_zero: bool


def compute_pivot_aggregates(agg_specs: list[ast.FuncCall], frame: Frame,
                             grouping: Grouping, group_frame: Frame,
                             stats: Optional[StatsCollector],
                             aggregate: Callable[..., dict],
                             cache: Optional[EncodingCache] = None
                             ) -> set[int]:
    """Compute every pivot-family aggregate, binding ``__aggI`` columns
    into ``group_frame``.  Returns the set of handled spec indexes.

    ``aggregate`` is the executor's batch entry point --
    ``(items, group_ids, n_groups) -> {key: ColumnData}`` -- which runs
    the per-cell aggregation.
    """
    families = _detect_families(agg_specs, frame)
    handled: set[int] = set()
    for (column_keys, _result_norm), (terms, columns, result_expr) \
            in families.items():
        if len(terms) < 2:
            continue  # linear evaluation is fine for a single term
        cancel.checkpoint("pivot")
        faults.fire("pivot")
        _compute_family(terms, list(column_keys), columns, result_expr,
                        frame, grouping, group_frame, stats, aggregate,
                        cache)
        handled.update(t.index for t in terms)
    return handled


# ----------------------------------------------------------------------
def _detect_families(agg_specs: list[ast.FuncCall], frame: Frame):
    """Group pivot-pattern aggregates by (pivot columns, THEN expr)."""
    from repro.engine.executor import _normalize

    families: dict[tuple, tuple[list[_PivotTerm],
                                dict[Any, ast.ColumnRef], ast.Expr]] = {}
    for index, spec in enumerate(agg_specs):
        parsed = _parse_term(index, spec, frame)
        if parsed is None:
            continue
        term, columns, result_expr = parsed
        if term.else_zero and term.func != "sum":
            continue  # ELSE 0 only preserves semantics for sum()
        column_keys = tuple(sorted(term.literals, key=repr))
        key = (column_keys, _normalize(result_expr, frame))
        if key in families:
            families[key][0].append(term)
        else:
            families[key] = ([term], columns, result_expr)
    return families


def _parse_term(index: int, spec: ast.FuncCall, frame: Frame
                ) -> Optional[tuple[_PivotTerm,
                                    dict[Any, ast.ColumnRef], ast.Expr]]:
    from repro.engine.executor import _normalize

    if spec.name not in ("sum", "count", "min", "max", "avg"):
        return None
    if spec.distinct or spec.over is not None or len(spec.args) != 1:
        return None
    case = spec.args[0]
    if not isinstance(case, ast.CaseWhen) or len(case.whens) != 1:
        return None
    else_zero = False
    if case.else_ is not None:
        if isinstance(case.else_, ast.Literal) and case.else_.value == 0:
            else_zero = True
        elif isinstance(case.else_, ast.Literal) \
                and case.else_.value is None:
            else_zero = False
        else:
            return None

    condition, result_expr = case.whens[0]
    literals: dict[Any, Any] = {}
    columns: dict[Any, ast.ColumnRef] = {}
    for conjunct in split_conjuncts(condition):
        pair = _column_equals_literal(conjunct)
        if pair is None:
            return None
        ref, value = pair
        if value is None:
            # ``d = NULL`` is never true, not ``d IS NULL``: no cell of
            # the family is this term's; the generic evaluator has it.
            return None
        try:
            key = _normalize(ref, frame)
        except Exception:
            return None
        if key in literals:
            return None
        literals[key] = value
        columns[key] = ref
    if not literals:
        return None
    return (_PivotTerm(index, spec.name, literals, else_zero),
            columns, result_expr)


def _column_equals_literal(expr: ast.Expr
                           ) -> Optional[tuple[ast.ColumnRef, Any]]:
    if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
        return left, right.value
    if isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
        return right, left.value
    return None


# ----------------------------------------------------------------------
def _compute_family(terms: list[_PivotTerm], column_keys: list,
                    columns: dict[Any, ast.ColumnRef],
                    result_expr: ast.Expr, frame: Frame,
                    grouping: Grouping, group_frame: Frame,
                    stats: Optional[StatsCollector],
                    aggregate: Callable[..., dict],
                    cache: Optional[EncodingCache] = None) -> None:
    n_rows = frame.n_rows
    if stats is not None:
        # One hash probe per input row for the whole family.
        stats.add(case_evaluations=n_rows)

    pivot_columns = [evaluate(columns[k], frame, None)
                     for k in column_keys]
    group_id_column = ColumnData(
        SQLType.INTEGER, grouping.group_ids.astype(np.int64),
        np.zeros(n_rows, dtype=bool))
    # The synthetic group-id column carries no cache token, but the
    # pivot columns themselves are usually base-table references whose
    # encodings the cache serves.
    combined = factorize([group_id_column] + pivot_columns, n_rows, cache)

    arg = evaluate(result_expr, frame, None)
    if arg.sql_type is None:
        arg = ColumnData.all_null(SQLType.REAL, len(arg))
    # One aggregation pass per distinct function: terms with different
    # functions share the factorization (the O(1) dispatch) but must
    # not share cell values.
    cells_by_func = aggregate(
        [(func, func, arg, False)
         for func in sorted({t.func for t in terms})],
        combined.group_ids, combined.n_groups)

    firsts = first_positions(combined.group_ids, combined.n_groups)
    cell_group = grouping.group_ids[firsts]
    cell_pivot = [col.take(firsts) for col in pivot_columns]

    for term in terms:
        cell_values = cells_by_func[term.func]
        out = ColumnData.all_null(cell_values.sql_type, grouping.n_groups)
        mask = np.ones(combined.n_groups, dtype=bool)
        for key, cell_col in zip(column_keys, cell_pivot):
            mask &= ~cell_col.nulls
            mask &= _equals_scalar(cell_col, term.literals[key])
        hit = np.nonzero(mask)[0]
        out.values[cell_group[hit]] = cell_values.values[hit]
        out.nulls[cell_group[hit]] = cell_values.nulls[hit]
        if term.else_zero or term.func == "count":
            # count() never returns NULL, and ELSE 0 makes sums of
            # missing cells 0: backfill the untouched groups.
            out.values[out.nulls] = 0
            out.nulls[:] = False
        group_frame.add_column(f"__agg{term.index}", out)


def _equals_scalar(column: ColumnData, literal: Any) -> np.ndarray:
    values = column.values
    if column.sql_type == SQLType.VARCHAR:
        values = np.where(column.nulls, "", values)
        return np.asarray(values == str(literal), dtype=bool) \
            if isinstance(literal, str) else np.zeros(len(values),
                                                      dtype=bool)
    if isinstance(literal, str):
        return np.zeros(len(values), dtype=bool)
    return np.asarray(values == literal, dtype=bool)
