"""The CASE fan-out evaluator: disjoint pivot-style aggregations.

Both papers observe that queries of the shape

    sum(CASE WHEN Dh = vh1 AND ... AND Dk = vk1 THEN A ELSE null END),
    ...
    sum(CASE WHEN Dh = vhN AND ... AND Dk = vkN THEN A ELSE null END)

force the evaluator to test ``N`` conjunctions per input row even
though the conditions are disjoint -- each row falls into exactly one
result column -- and propose reducing the per-row cost from ``O(N)`` to
``O(1)`` "using a hash table that maps one conjunction to one result
column" (DMKD Section 3.5).

This module is how the engine *computes* every such family, whatever
``ExecutorOptions.case_dispatch`` says: the input is factorized once
over (group keys x pivot columns) -- a vectorized stand-in for the
per-row hash probe -- each cell is aggregated once, and the cells are
scattered into the per-term result columns.  The option only selects
what the ledger *charges* for it (DESIGN.md section 5, "Period-faithful
cost choices"): ``"linear"`` books the ``N`` WHEN tests per row the
period DBMS performed -- the number the generic evaluator
(:func:`repro.engine.expressions._eval_case`) books for the same
terms -- and ``"hash"`` the one probe per row of the proposed
optimizer.

A term the kernel cannot reproduce bit for bit is declined by
:func:`_parse_term` (or, for the typing of the THEN expression, by
:func:`_compute_family`) and keeps the generic evaluator, as does a
family of one; ``tests/property/test_pivot_bitwise.py`` holds the two
evaluators against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.engine import faults
from repro.engine.column import ColumnData
from repro.engine.encoding_cache import EncodingCache
from repro.engine.expressions import Frame, comparable_types, evaluate
from repro.engine.groupby import (EncodedColumn, encode_column,
                                  group_encoded)
from repro.engine.planner import split_conjuncts
from repro.engine.stats import StatsCollector
from repro.engine.types import SQLType, infer_type
from repro.sql import ast


@dataclass
class _PivotTerm:
    """One aggregate select term matching the pivot pattern."""

    index: int                      # position in agg_specs
    func: str
    literals: dict[Any, Any]        # column norm-key -> literal value
    else_zero: bool


@dataclass
class _Family:
    """The terms that share pivot columns and a THEN expression."""

    terms: list[_PivotTerm]
    column_keys: tuple              # the pivot columns' norm-keys
    columns: dict[Any, ast.ColumnRef]
    result_expr: ast.Expr


def detect_families(agg_specs: list[ast.FuncCall], norms: list[Any],
                    frame: Frame) -> list[_Family]:
    """The families of two or more pivot-pattern aggregates, grouped by
    (pivot columns, THEN expr).  ``norms`` holds each spec's
    normalized key (``executor._normalize``), which the group rewrite
    computed when it bound the call: a term's pivot columns and THEN
    expression are read off it, not normalized again.  A lone term
    gains nothing from the kernel and stays with the generic
    evaluator."""
    families: dict[tuple, _Family] = {}
    for index, (spec, norm) in enumerate(zip(agg_specs, norms)):
        parsed = _parse_term(index, spec, norm, frame)
        if parsed is None:
            continue
        term, columns, result_expr, result_key = parsed
        column_keys = tuple(sorted(term.literals, key=repr))
        key = (column_keys, result_key)
        if key in families:
            families[key].terms.append(term)
        else:
            families[key] = _Family([term], column_keys, columns,
                                    result_expr)
    return [f for f in families.values() if len(f.terms) >= 2]


def compute_families(families: list[_Family], frame: Frame,
                     group_ids: np.ndarray, n_groups: int,
                     group_frame: Frame,
                     stats: Optional[StatsCollector],
                     aggregate: Callable[..., dict],
                     cache: Optional[EncodingCache],
                     case_dispatch: str) -> set[int]:
    """Compute each family, binding its terms' ``__aggI`` columns into
    ``group_frame``.  Returns the handled spec indexes; a family the
    kernel declines is left out of them.

    ``aggregate`` is the executor's batch entry point --
    ``(items, group_ids, n_groups) -> {key: ColumnData}`` -- which runs
    the per-cell aggregation.
    """
    handled: set[int] = set()
    for family in families:
        faults.cross("pivot")
        if _compute_family(family, frame, group_ids, n_groups,
                           group_frame, stats, aggregate, cache,
                           case_dispatch):
            handled.update(t.index for t in family.terms)
    return handled


# ----------------------------------------------------------------------
def _parse_term(index: int, spec: ast.FuncCall, norm, frame: Frame
                ) -> Optional[tuple[_PivotTerm, dict[Any, ast.ColumnRef],
                                    ast.Expr, Any]]:
    """``spec`` as a pivot term: the term, its pivot columns by key,
    its THEN expression and that expression's key; None when the
    kernel cannot reproduce it.  ``norm`` is ``spec``'s normalized key,
    whose parts mirror the tree (``executor._normalize``): ``("func",
    name, distinct, over, arg)``, a one-WHEN CASE ``("case", 1, cond,
    result, else)``, an equality ``("bin", "=", left, right)`` and a
    column an ``int``."""
    if spec.name not in ("sum", "count", "min", "max", "avg"):
        return None
    if spec.distinct or spec.over is not None or len(spec.args) != 1:
        return None
    case = spec.args[0]
    if not isinstance(case, ast.CaseWhen) or len(case.whens) != 1:
        return None
    else_zero = False
    if case.else_ is not None:
        if not isinstance(case.else_, ast.Literal):
            return None
        value = case.else_.value
        if value is not None:
            # ELSE 0 keeps the THEN expression's type and only turns a
            # missing cell's NULL into 0 under sum(); ``0.0`` would
            # widen an INTEGER sum, any other function would count or
            # compare the zeros.
            if type(value) is not int or value != 0 or spec.name != "sum":
                return None
            else_zero = True

    condition, result_expr = case.whens[0]
    case_key = norm[4]
    condition_key, result_key = case_key[2], case_key[3]
    if not isinstance(result_expr, (ast.ColumnRef, ast.Literal)) and any(
            isinstance(node, ast.CaseWhen)
            for node in ast.walk(result_expr)):
        # The generic evaluator charges a nested CASE once per term;
        # declining keeps the "linear" ledger equal to its own.
        return None
    literals: dict[Any, Any] = {}
    columns: dict[Any, ast.ColumnRef] = {}
    for conjunct, conjunct_key in zip(split_conjuncts(condition),
                                      _split_conjunct_keys(condition_key)):
        pair = _column_equals_literal(conjunct)
        if pair is None:
            return None
        ref, value = pair
        if value is None:
            # ``d = NULL`` is never true, not ``d IS NULL``: no cell of
            # the family is this term's; the generic evaluator has it.
            return None
        column_type = frame.resolve(ref).sql_type
        if column_type is None or not comparable_types(
                column_type, infer_type(value)):
            # The generic evaluator raises TypeMismatchError for
            # ``varchar_column = 1``; the kernel's lookup would just
            # find no cell.  (So a string literal never meets a
            # non-VARCHAR column there: like compares with like.)
            return None
        key = conjunct_key[2] if type(conjunct_key[2]) is int \
            else conjunct_key[3]
        if key in literals:
            return None
        literals[key] = value
        columns[key] = ref
    if not literals:
        return None
    return (_PivotTerm(index, spec.name, literals, else_zero),
            columns, result_expr, result_key)


def _split_conjunct_keys(key) -> list:
    """The keys :func:`~repro.engine.planner.split_conjuncts` would
    give the conjuncts of the expression ``key`` normalizes."""
    if key[0] == "bin" and key[1] == "AND":
        return _split_conjunct_keys(key[2]) + _split_conjunct_keys(key[3])
    return [key]


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
def _compute_family(family: _Family, frame: Frame,
                    group_ids: np.ndarray, n_groups: int,
                    group_frame: Frame,
                    stats: Optional[StatsCollector],
                    aggregate: Callable[..., dict],
                    cache: Optional[EncodingCache],
                    case_dispatch: str) -> bool:
    terms = family.terms
    n_rows = frame.n_rows
    arg = evaluate(family.result_expr, frame, None)
    any_else_zero = any(t.else_zero for t in terms)
    if any_else_zero and not (arg.sql_type is not None
                              and arg.sql_type.is_numeric):
        # ``THEN NULL ELSE 0`` is INTEGER and ``THEN 'x' ELSE 0`` a
        # type error in the generic evaluator: let it say so.
        return False
    if arg.sql_type is None:
        arg = ColumnData.all_null(SQLType.REAL, len(arg))
    if stats is not None:
        # What the fan-out costs on the ledger, not what it cost here:
        # one WHEN test per term per row, or one hash probe per row.
        stats.add(case_evaluations=n_rows * len(terms)
                  if case_dispatch == "linear" else n_rows)

    # One cell per (group, pivot-value combination) that occurs.  The
    # group ids are dense already, so they are their own codes, as
    # they stand: no row's group is NULL, so the slot the convention
    # keeps for NULL is simply the last one instead of code 0 (this
    # column is never decoded) and no shifted copy of the ids is made.
    # The pivot columns are usually base-table references whose
    # encodings the cache serves.
    pivots = [encode_column(evaluate(family.columns[k], frame, None),
                            cache)
              for k in family.column_keys]
    cells = group_encoded(
        [EncodedColumn(group_ids, np.arange(n_groups),
                       SQLType.INTEGER)] + pivots)
    cell_group = cells.key_codes[:, 0]

    # One aggregation pass per distinct function: terms with different
    # functions share the factorization (the O(1) dispatch) but must
    # not share cell values.
    cells_by_func = aggregate(
        [(func, func, arg, False)
         for func in sorted({t.func for t in terms})],
        cells.group_ids, cells.n_groups)

    # One ranking of the cells' pivot-value combinations, and the
    # literal tuple -> combination lookup: each distinct conjunction a
    # term asks for gets a *slot*, and every cell is routed to its
    # slot (or dropped) in one pass -- O(cells + terms), not a mask
    # over all cells per term.
    combos = group_encoded(
        [EncodedColumn(cells.key_codes[:, j + 1], enc.uniques,
                       enc.sql_type)
         for j, enc in enumerate(pivots)])
    combo_keys = combos.key_columns()
    real = np.flatnonzero(~np.logical_or.reduce(
        [col.nulls for col in combo_keys]))   # a NULL never equals
    combo_of = dict(zip(
        zip(*(col.values[real].tolist() for col in combo_keys)),
        real.tolist()))
    slot_of_combo = np.full(combos.n_groups, -1, dtype=np.int64)
    n_slots = 1   # slot 0 receives no cell: the literals no row has
    term_slots = []
    for term in terms:
        combo = combo_of.get(tuple(term.literals[k]
                                   for k in family.column_keys))
        if combo is None:
            term_slots.append(0)
            continue
        if slot_of_combo[combo] < 0:
            slot_of_combo[combo] = n_slots
            n_slots += 1
        term_slots.append(int(slot_of_combo[combo]))
    cell_slot = slot_of_combo[combos.group_ids]
    hit = np.flatnonzero(cell_slot >= 0)
    where = (cell_slot[hit], cell_group[hit])

    scattered: dict[str, tuple[SQLType, np.ndarray, np.ndarray]] = {}
    for func, cell_values in cells_by_func.items():
        blank = ColumnData.all_null(cell_values.sql_type,
                                    n_slots * n_groups)
        values = blank.values.reshape(n_slots, n_groups)
        nulls = blank.nulls.reshape(n_slots, n_groups)
        values[where] = cell_values.values[hit]
        nulls[where] = cell_values.nulls[hit]
        if func == "count":
            nulls[:] = False   # count() of a missing cell is 0
        scattered[func] = cell_values.sql_type, values, nulls
    if any_else_zero:
        # Under ELSE 0 every row outside the cell adds a zero: the sum
        # is NULL only where an all-NULL cell is its whole group (or
        # the group has no rows at all -- the empty input's one).
        whole = np.bincount(cells.group_ids, minlength=cells.n_groups) \
            == np.bincount(group_ids, minlength=n_groups)[cell_group]
        else_zero_nulls = np.full((n_slots, n_groups), n_rows == 0)
        else_zero_nulls[where] = cells_by_func["sum"].nulls[hit] \
            & whole[hit]

    for term, slot in zip(terms, term_slots):
        sql_type, values, nulls = scattered[term.func]
        if term.else_zero:
            nulls = else_zero_nulls
        group_frame.add_column(
            f"__agg{term.index}",
            ColumnData(sql_type, values[slot], nulls[slot]))
    return True
