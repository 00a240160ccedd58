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

This module is how the engine *computes* every such family: the input
is factorized once over (group keys x pivot columns) -- a vectorized
stand-in for the per-row hash probe -- each cell is aggregated once,
and the cells are scattered into the per-term result columns.  The
ledger still *charges* the ``N`` WHEN tests per row the period DBMS
performed (DESIGN.md section 5, "Period-faithful cost choices") -- the
number the generic evaluator
(:func:`repro.engine.expressions._eval_case`) books for the same
terms.  The proposed optimizer's one probe per row is not booked; it
is read off a trace (ablation A1, DESIGN.md section 3).

A term the kernel cannot reproduce bit for bit is declined -- by its
call template (:func:`_pattern`), by its columns and literal types
(:meth:`_Pattern.place`), by its ELSE literal
(:func:`detect_families`) or, for the typing of the THEN expression,
by :func:`_compute_family` -- and keeps the generic evaluator, as does
a family of one; ``tests/property/test_pivot_bitwise.py`` holds the
two evaluators against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.engine import faults
from repro.engine.binder import (COLUMN, LITERAL, CallSlots, children,
                                 sizes)
from repro.engine.column import ColumnData
from repro.engine.expressions import Frame, comparable_types, evaluate
from repro.engine.groupby import (EncodedColumn, encode_column,
                                  group_encoded)
from repro.engine.stats import StatsCollector
from repro.engine.types import SQLType, infer_type
from repro.sql import ast


@dataclass
class _Family:
    """The terms that share pivot columns and a THEN expression: per
    term its call's index among the bound calls and key, where in the
    key its pivot literals sit (in ``columns`` order), its function
    and whether it says ELSE 0."""

    indexes: list[int]
    keys: list[tuple]
    orders: list[tuple]
    funcs: list[str]
    else_zero: list[bool]
    columns: dict[int, ColumnData]  # the pivot columns, by key
    result_expr: ast.Expr


def detect_families(aggs: CallSlots) -> list[_Family]:
    """The families of two or more pivot-pattern aggregates among the
    statement's distinct aggregate calls, grouped by (pivot columns,
    THEN expression).  Each call template is analysed once
    (:func:`_pattern`), and once more per set of columns and literal
    types its calls come with (:meth:`_Pattern.place`); every term's
    literals are then read off its call's key.  A lone term gains
    nothing from the kernel and stays with the generic evaluator."""
    patterns: dict[int, Optional[_Pattern]] = {}
    placed: dict[tuple, Any] = {}
    results: dict[tuple, int] = {}
    families: dict[tuple, _Family] = {}
    for index, (call, key) in enumerate(zip(aggs.calls, aggs.keys)):
        tid, types, ids = key[0], key[1], key[2]
        literals = key[3:]
        if tid not in patterns:
            patterns[tid] = _pattern(aggs.templates[tid])
        pattern = patterns[tid]
        if pattern is None:
            continue
        where = placed.get((tid, types, ids))
        if where is None:
            where = pattern.place(aggs.data[ids], types, literals)
            if where is not False:
                # Terms of different templates share a family when
                # their pivot columns and THEN expressions agree.
                columns, order, span, result = where
                where = (columns, order, span, results.setdefault(
                    (tuple(columns), result), len(results)))
            placed[tid, types, ids] = where
        if where is False:
            continue
        else_zero = False
        if pattern.else_literal is not None:
            value = literals[pattern.else_literal]
            if value is not None:
                # ELSE 0 keeps the THEN expression's type and only
                # turns a missing cell's NULL into 0 under sum();
                # ``0.0`` would widen an INTEGER sum, any other
                # function would count or compare the zeros.
                if type(value) is not int or value != 0 \
                        or pattern.func != "sum":
                    continue
                else_zero = True
        columns, order, (l0, l1), result_id = where
        family_key = (result_id, literals[l0:l1])
        family = families.get(family_key)
        if family is None:
            family = families[family_key] = _Family(
                [], [], [], [], [], columns, call.args[0].whens[0][1])
        family.indexes.append(index)
        family.keys.append(key)
        family.orders.append(order)
        family.funcs.append(pattern.func)
        family.else_zero.append(else_zero)
    return [f for f in families.values() if len(f.indexes) >= 2]


def compute_families(families: list[_Family], frame: Frame,
                     group_ids: np.ndarray, n_groups: int,
                     group_frame: Frame,
                     stats: Optional[StatsCollector],
                     aggregate: Callable[..., dict]) -> set[int]:
    """Compute each family, binding its terms' ``__aggI`` columns into
    ``group_frame`` in one batch per family.  Returns the handled call
    indexes; a family the kernel declines is left out of them.

    ``aggregate`` is the executor's batch entry point --
    ``(items, group_ids, n_groups) -> {key: ColumnData}`` -- which runs
    the per-cell aggregation.
    """
    handled: set[int] = set()
    # Families over the same pivot columns share their cells: an Hpct
    # cell's two sums are two families, one factorization.
    cells: dict[tuple, tuple] = {}
    for family in families:
        faults.cross("pivot")
        if _compute_family(family, frame, group_ids, n_groups,
                           group_frame, stats, aggregate, cells):
            handled.update(family.indexes)
    return handled


# ----------------------------------------------------------------------
@dataclass
class _Pattern:
    """A call template of the pivot pattern, ``func(CASE WHEN c1 = v1
    AND ... THEN result [ELSE literal] END)``, as positions in its
    calls' columns and literals."""

    func: str
    conjuncts: tuple[tuple[int, int], ...]   # (column, literal) each
    else_literal: Optional[int]
    result: tuple        # (template, column span, literal span)

    def place(self, data: tuple, types: tuple, literals: tuple) -> Any:
        """What the calls of this template over the columns ``data``
        with literals of ``types`` share: the pivot columns by key (in
        key order), where each one's literal is, the literal span of
        the THEN expression and the rest of its key -- or False when
        the kernel cannot reproduce them (``literals`` is one such
        call's)."""
        literal_at: dict[int, int] = {}
        by_key: dict[int, ColumnData] = {}
        for c, l in self.conjuncts:
            column = data[c]
            if id(column) in literal_at or column.sql_type is None:
                return False
            if types[l] is type(None):
                # ``d = NULL`` is never true, not ``d IS NULL``: no
                # cell of the family is this term's; the generic
                # evaluator has it.
                return False
            if not comparable_types(column.sql_type,
                                    infer_type(literals[l])):
                # The generic evaluator raises TypeMismatchError for
                # ``varchar_column = 1``; the kernel's lookup would
                # just find no cell.  (So a string literal never meets
                # a non-VARCHAR column there: like compares with like.)
                return False
            literal_at[id(column)] = l
            by_key[id(column)] = column
        keys = sorted(literal_at)
        template, c0, c1, l0, l1 = self.result
        # The THEN expression but for its literal values, which are
        # each term's own.
        result = (template, types[l0:l1],
                  tuple([id(column) for column in data[c0:c1]]))
        return ({key: by_key[key] for key in keys},
                tuple([literal_at[key] for key in keys]), (l0, l1),
                result)


def _pattern(call: Any) -> Optional[_Pattern]:
    """The pivot pattern of a call template, or None when no call of
    that template is a term the kernel can reproduce."""
    _, name, distinct, n_args, has_default, _, window = call[:7]
    if name not in ("sum", "count", "min", "max", "avg") or distinct \
            or window is not None or n_args != 1 or has_default:
        return None
    case = call[7]
    if case is COLUMN or case is LITERAL or case[0] != "case" \
            or case[1] != 1:
        return None
    condition, result = case[3], case[4]
    if result is not COLUMN and result is not LITERAL \
            and _calls_case(result):
        # The generic evaluator charges a nested CASE once per term;
        # declining keeps the "linear" ledger equal to its own.
        return None
    conjuncts: list[tuple[int, int]] = []
    at = [0, 0]
    for conjunct in _split_conjuncts(condition):
        if conjunct is COLUMN or conjunct is LITERAL \
                or conjunct[:2] != ("bin", "=") \
                or {conjunct[2], conjunct[3]} != {COLUMN, LITERAL}:
            return None
        conjuncts.append((at[0], at[1]))
        at[0] += 1
        at[1] += 1
    n_columns, n_literals, _ = sizes(result)
    else_literal = None
    if case[2]:
        if case[5] is not LITERAL:
            return None
        else_literal = at[1] + n_literals
    return _Pattern(name, tuple(conjuncts), else_literal,
                    (result, at[0], at[0] + n_columns, at[1],
                     at[1] + n_literals))


def _split_conjuncts(template: Any) -> list:
    """The conjuncts of a condition template's top-level ``AND``s."""
    if template is not COLUMN and template is not LITERAL \
            and template[:2] == ("bin", "AND"):
        return _split_conjuncts(template[2]) \
            + _split_conjuncts(template[3])
    return [template]


def _calls_case(template: Any) -> bool:
    if template is COLUMN or template is LITERAL:
        return False
    return template[0] == "case" \
        or any(_calls_case(child) for child in children(template))


# ----------------------------------------------------------------------
def _cells(columns: dict[int, ColumnData], group_ids: np.ndarray,
           n_groups: int, stats: Optional[StatsCollector]) -> tuple:
    """``(cells, combos, combo_of)`` of one set of pivot columns: one
    cell per (group, pivot-value combination) that occurs, the ranking
    of those combinations, and the literal tuple -> combination
    lookup."""
    # The group ids are dense already, so they are their own codes, as
    # they stand: no row's group is NULL, so the slot the convention
    # keeps for NULL is simply the last one instead of code 0 (this
    # column is never decoded) and no shifted copy of the ids is made.
    # The pivot columns are usually base-table references whose
    # encodings their memos serve.
    pivots = [encode_column(column, stats) for column in columns.values()]
    cells = group_encoded(
        [EncodedColumn(group_ids, np.arange(n_groups),
                       SQLType.INTEGER)] + pivots)
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
    return cells, combos, combo_of


def _compute_family(family: _Family, frame: Frame,
                    group_ids: np.ndarray, n_groups: int,
                    group_frame: Frame,
                    stats: Optional[StatsCollector],
                    aggregate: Callable[..., dict],
                    shared: dict) -> bool:
    n_rows = frame.n_rows
    arg = evaluate(family.result_expr, frame, None)
    any_else_zero = any(family.else_zero)
    if any_else_zero and not (arg.sql_type is not None
                              and arg.sql_type.is_numeric):
        # ``THEN NULL ELSE 0`` is INTEGER and ``THEN 'x' ELSE 0`` a
        # type error in the generic evaluator: let it say so.
        return False
    if arg.sql_type is None:
        arg = ColumnData.all_null(SQLType.REAL, len(arg))
    if stats is not None:
        # What the fan-out costs on the ledger, not what it cost here:
        # one WHEN test per term per row.
        stats.add(case_evaluations=n_rows * len(family.indexes))

    key = tuple(family.columns)
    if key not in shared:
        shared[key] = _cells(family.columns, group_ids, n_groups, stats)
    cells, combos, combo_of = shared[key]
    cell_group = cells.key_codes[:, 0]

    # One aggregation pass per distinct function: terms with different
    # functions share the factorization (the O(1) dispatch) but must
    # not share cell values.
    cells_by_func = aggregate(
        [(func, func, arg, False)
         for func in sorted(set(family.funcs))],
        cells.group_ids, cells.n_groups)

    # Slot 0 receives no cell: the literals no row has.
    slot_of: dict[int, int] = {}
    term_slots = []
    for key, order in zip(family.keys, family.orders):
        # A key holds its call's literals from position 3 on.
        combo = combo_of.get(tuple([key[3 + at] for at in order]))
        if combo is None:
            term_slots.append(0)
            continue
        slot = slot_of.get(combo)
        if slot is None:
            slot = slot_of[combo] = len(slot_of) + 1
        term_slots.append(slot)
    n_slots = len(slot_of) + 1
    slot_of_combo = np.full(combos.n_groups, -1, dtype=np.int64)
    slot_of_combo[list(slot_of)] = list(slot_of.values())
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

    group_frame.add_columns(
        (f"__agg{index}", _cell_column(
            scattered[func], slot, else_zero_nulls if else_zero else None))
        for index, func, else_zero, slot in zip(
            family.indexes, family.funcs, family.else_zero, term_slots))
    return True


def _cell_column(scattered: tuple, slot: int,
                 nulls: Optional[np.ndarray]) -> ColumnData:
    """A term's result: its slot's row of the scattered block, with
    the ELSE 0 NULLs when ``nulls`` is given."""
    sql_type, values, block_nulls = scattered
    return ColumnData(sql_type, values[slot],
                      (block_nulls if nulls is None else nulls)[slot])
