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

This module is how the engine *computes* every such family -- the
user-written terms of a statement and the cell blocks of its
generated cell families (:class:`~repro.sql.ast.CellFamily`) alike:
the input is factorized once over (group keys x pivot columns) -- a
vectorized stand-in for the per-row hash probe -- each cell is
aggregated once, and the cells are scattered into the per-term result
columns, or kept as one groups x cells block per cell family
(:class:`CellStore`).  The ledger still *charges* the ``N`` WHEN tests
per row the period DBMS performed (DESIGN.md section 5,
"Period-faithful cost choices") -- the number the generic evaluator
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
from typing import Any, Optional

import numpy as np

from repro.engine import faults
from repro.engine.aggregates import compute_aggregate
from repro.engine.binder import (COLUMN, LITERAL, MATCH, CallSlots,
                                 CellBlock, children, holds_match, sizes)
from repro.engine.column import ColumnData
from repro.engine.expressions import Frame, comparable_types, evaluate
from repro.engine.groupby import (EncodedColumn, encode_column,
                                  group_encoded)
from repro.engine.stats import StatsCollector
from repro.engine.types import SQLType, infer_type
from repro.sql import ast


@dataclass
class _Terms:
    """Terms of a family with one function and one ELSE: the literal
    tuple that picks each one's cell (the pivot values in the family's
    column order, None where the conjunct is ``IS NULL``), and where
    the results go -- the ``__agg`` column of call ``index``, or the
    cells ``cells`` of ``block``."""

    func: str
    else_zero: bool
    lookups: list[tuple]
    index: Optional[int] = None
    block: Optional[CellBlock] = None
    cells: Optional[np.ndarray] = None


@dataclass
class _Family:
    """The terms that share pivot columns and a THEN expression, from
    user-written calls and cell families alike."""

    columns: dict[int, ColumnData]  # the pivot columns, by key
    result_expr: ast.Expr
    terms: list[_Terms]

    @property
    def size(self) -> int:
        return sum(len(terms.lookups) for terms in self.terms)


class CellStore:
    """Where each cell aggregate of a statement's cell families is:
    row ``row[number]`` of block ``blocks[block[number]]``, a ``(SQL
    type, values, nulls)`` triple of cells x groups arrays.  The pivot
    kernel files the blocks it scatters as they are; the generic
    evaluator files one of its own per :class:`CellBlock`."""

    def __init__(self, n_cells: int) -> None:
        self.block = np.full(n_cells, -1, dtype=np.int64)
        self.row = np.zeros(n_cells, dtype=np.int64)
        self.blocks: list[tuple] = []

    def put(self, numbers: np.ndarray, block: tuple,
            rows: np.ndarray) -> None:
        self.block[numbers] = len(self.blocks)
        self.row[numbers] = rows
        self.blocks.append(block)

    def take(self, numbers: np.ndarray) -> ColumnData:
        """The aggregates ``numbers`` end to end, cell by cell."""
        which, rows = self.block[numbers], self.row[numbers]
        sql_type, values, nulls = self.blocks[which[0]]
        if (which == which[0]).all():
            return ColumnData(sql_type, values[rows].reshape(-1),
                              nulls[rows].reshape(-1))
        # Cells two families share: the first family's block has some.
        out_values = np.empty((len(numbers), values.shape[1]),
                              dtype=values.dtype)
        out_nulls = np.empty(out_values.shape, dtype=bool)
        for b in np.unique(which).tolist():
            mine = which == b
            _, values, nulls = self.blocks[b]
            out_values[mine] = values[rows[mine]]
            out_nulls[mine] = nulls[rows[mine]]
        return ColumnData(sql_type, out_values.reshape(-1),
                          out_nulls.reshape(-1))


def detect_families(aggs: CallSlots) -> list[_Family]:
    """The families of two or more pivot-pattern aggregates among the
    statement's distinct aggregate calls and cell blocks, grouped by
    (pivot columns, THEN expression).  Each call template is analysed
    once (:func:`_pattern`), and once more per set of columns and
    literal types its calls come with (:meth:`_Pattern.place`); every
    term's pivot literals are then read off its call's key -- or, for
    a cell block, off its family's value matrix.  A lone term gains
    nothing from the kernel and stays with the generic evaluator."""
    patterns: dict[int, Optional[_Pattern]] = {}
    placed: dict[tuple, Any] = {}
    results: dict[tuple, int] = {}
    families: dict[tuple, _Family] = {}

    def pattern_of(tid: int) -> Optional[_Pattern]:
        if tid not in patterns:
            patterns[tid] = _pattern(aggs.templates[tid])
        return patterns[tid]

    def family_of(call, key, pattern, where) -> Optional[tuple]:
        """The family the calls of ``key`` join and whether they say
        ELSE 0; None when ELSE keeps them out of the kernel."""
        literals = key[3:]
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
                    return None
                else_zero = True
        columns, _, (l0, l1), result = where
        # Terms of different templates share a family when their pivot
        # columns and THEN expressions agree.
        result_id = results.setdefault((tuple(columns), result),
                                       len(results))
        family_key = (result_id, literals[l0:l1])
        family = families.get(family_key)
        if family is None:
            family = families[family_key] = _Family(
                columns, call.args[0].whens[0][1], [])
        return family, else_zero

    for entry in aggs.order:
        if type(entry) is int:
            call, key = aggs.calls[entry], aggs.keys[entry]
            tid, types, ids = key[0], key[1], key[2]
            pattern = pattern_of(tid)
            if pattern is None or pattern.cells:
                continue
            where = placed.get((tid, types, ids))
            if where is None:
                where = placed[tid, types, ids] = pattern.place(
                    aggs.data[ids], types, key[3:])
            if where is False:
                continue
            joined = family_of(call, key, pattern, where)
            if joined is None:
                continue
            family, else_zero = joined
            family.terms.append(_Terms(
                pattern.func, else_zero,
                [tuple([None if at is None else key[3 + at]
                        for at in where[1]])], index=entry))
            continue
        block = entry
        pattern = pattern_of(block.key[0])
        if pattern is None or not pattern.cells or not len(block.own):
            continue
        where = pattern.place_cells(block, aggs.data[block.key[2]])
        if where is False:
            continue
        joined = family_of(block.call, block.key, pattern, where)
        if joined is None:
            continue
        family, else_zero = joined
        family.terms.append(_Terms(pattern.func, else_zero,
                                   _lookups(block, where[1]),
                                   block=block, cells=block.own))
    return [f for f in families.values() if f.size >= 2]


def _lookups(block: CellBlock, order: tuple) -> list[tuple]:
    """The pivot values of each cell ``block`` computes, its BY
    columns put in ``order``."""
    values = block.family.values
    if len(block.own) != len(values):
        values = [values[i] for i in block.own.tolist()]
    if order == tuple(range(len(order))):
        return list(values)
    by_column = list(zip(*values))
    return list(zip(*[by_column[at] for at in order]))


def compute_families(families: list[_Family], frame: Frame,
                     group_ids: np.ndarray, n_groups: int,
                     group_frame: Frame, store: CellStore,
                     stats: Optional[StatsCollector]
                     ) -> tuple[set[int], set[CellBlock]]:
    """Compute each family, binding its calls' ``__aggI`` columns into
    ``group_frame`` in one batch per family and filing its cell blocks'
    results in ``store``.  Returns the handled call indexes and cell
    blocks; a family the kernel declines is left out of them."""
    handled: set[int] = set()
    blocks: set[CellBlock] = set()
    # Families over the same pivot columns share their cells: an Hpct
    # cell's two sums are two families, one factorization.
    cells: dict[tuple, tuple] = {}
    for family in families:
        faults.cross("pivot")
        if _compute_family(family, frame, group_ids, n_groups,
                           group_frame, store, stats, cells):
            for terms in family.terms:
                if terms.block is None:
                    handled.add(terms.index)
                else:
                    blocks.add(terms.block)
    return handled, blocks


# ----------------------------------------------------------------------
@dataclass
class _Pattern:
    """A call template of the pivot pattern, ``func(CASE WHEN c1 = v1
    AND ... THEN result [ELSE literal] END)`` -- a conjunct may be ``c
    IS NULL`` -- as positions in its calls' columns and literals; or,
    with ``cells``, ``func(CASE WHEN MATCH THEN ...)``, a cell family's
    call, whose conjuncts are its family's."""

    func: str
    conjuncts: tuple[tuple[int, Optional[int]], ...]  # (column, literal)
    else_literal: Optional[int]
    result: tuple        # (template, column span, literal span)
    cells: bool = False

    def place(self, data: tuple, types: tuple, literals: tuple) -> Any:
        """What the calls of this template over the columns ``data``
        with literals of ``types`` share: the pivot columns by key (in
        key order), where each one's literal is (None for ``IS NULL``),
        the literal span of the THEN expression and the rest of its key
        -- or False when the kernel cannot reproduce them
        (``literals`` is one such call's)."""
        literal_at: dict[int, Optional[int]] = {}
        by_key: dict[int, ColumnData] = {}
        for c, l in self.conjuncts:
            column = data[c]
            if id(column) in literal_at or column.sql_type is None:
                return False
            if l is not None and not _comparable(column, types[l],
                                                 literals[l]):
                return False
            literal_at[id(column)] = l
            by_key[id(column)] = column
        return self._placed(by_key, literal_at, data, types)

    def place_cells(self, block: CellBlock, data: tuple) -> Any:
        """:meth:`place` for a cell block whose call's columns are
        ``data``: its BY columns are the pivot columns, and where each
        one's literal is, its position in the family's value
        tuples."""
        literal_at: dict[int, Optional[int]] = {}
        by_key: dict[int, ColumnData] = {}
        for j, column in enumerate(block.by_data):
            if id(column) in literal_at or column.sql_type is None:
                return False
            of_type = {type(row[j]): row[j] for row in block.family.values}
            if not all(_comparable(column, kind, value)
                       for kind, value in of_type.items()
                       if value is not None):
                return False
            literal_at[id(column)] = j
            by_key[id(column)] = column
        return self._placed(by_key, literal_at, data, block.key[1])

    def _placed(self, by_key: dict, literal_at: dict, data: tuple,
                types: tuple) -> tuple:
        keys = sorted(literal_at)
        template, c0, c1, l0, l1 = self.result
        # The THEN expression but for its literal values, which are
        # each term's own.
        result = (template, types[l0:l1],
                  tuple([id(column) for column in data[c0:c1]]))
        return ({key: by_key[key] for key in keys},
                tuple([literal_at[key] for key in keys]), (l0, l1),
                result)


def _comparable(column: ColumnData, kind: type, literal: Any) -> bool:
    """Whether ``column = literal`` is a test the kernel can look up."""
    if kind is type(None):
        # ``d = NULL`` is never true, not ``d IS NULL``: no cell of the
        # family is this term's; the generic evaluator has it.
        return False
    # The generic evaluator raises TypeMismatchError for
    # ``varchar_column = 1``; the kernel's lookup would just find no
    # cell.  (So a string literal never meets a non-VARCHAR column
    # there: like compares with like.)
    return comparable_types(column.sql_type, infer_type(literal))


def _pattern(call: Any) -> Optional[_Pattern]:
    """The pivot pattern of a call template, or None when no call of
    that template is a term the kernel can reproduce."""
    _, name, distinct, n_args, has_default, _, window = call[:7]
    if name not in ("sum", "count", "min", "max", "avg") or distinct \
            or window is not None or n_args != 1 or has_default:
        return None
    case = call[7]
    if case is COLUMN or case is LITERAL or case is MATCH \
            or case[0] != "case" or case[1] != 1:
        return None
    condition, result = case[3], case[4]
    if holds_match(result):
        return None
    if result is not COLUMN and result is not LITERAL \
            and _calls_case(result):
        # The generic evaluator charges a nested CASE once per term;
        # declining keeps the "linear" ledger equal to its own.
        return None
    conjuncts: list[tuple[int, Optional[int]]] = []
    at = [0, 0]
    cells = condition is MATCH
    for conjunct in () if cells else _split_conjuncts(condition):
        if conjunct is COLUMN or conjunct is LITERAL \
                or conjunct is MATCH:
            return None
        if conjunct == ("isnull", False, COLUMN):
            conjuncts.append((at[0], None))
            at[0] += 1
            continue
        if conjunct[:2] != ("bin", "=") \
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
                     at[1] + n_literals), cells)


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
    of those combinations, and the lookup from a pivot value tuple --
    None for a NULL -- to its combination."""
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
    # value tuple -> combination lookup: each distinct conjunction a
    # term asks for gets a *slot*, and every cell is routed to its
    # slot (or dropped) in one pass -- O(cells + terms), not a mask
    # over all cells per term.  A NULL is looked up as None, which
    # only an ``IS NULL`` conjunct asks for: ``d = NULL`` matches
    # nothing and is never a term here.
    combos = group_encoded(
        [EncodedColumn(cells.key_codes[:, j + 1], enc.uniques,
                       enc.sql_type)
         for j, enc in enumerate(pivots)])
    keys = []
    for col in combos.key_columns():
        values = col.values.tolist()
        for i in np.flatnonzero(col.nulls).tolist():
            values[i] = None
        keys.append(values)
    combo_of = {key: i for i, key in enumerate(zip(*keys))}
    return cells, combos, combo_of


def _compute_family(family: _Family, frame: Frame,
                    group_ids: np.ndarray, n_groups: int,
                    group_frame: Frame, store: CellStore,
                    stats: Optional[StatsCollector],
                    shared: dict) -> bool:
    n_rows = frame.n_rows
    arg = evaluate(family.result_expr, frame, None)
    any_else_zero = any(terms.else_zero for terms in family.terms)
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
        stats.add(case_evaluations=n_rows * family.size)

    key = tuple(family.columns)
    if key not in shared:
        shared[key] = _cells(family.columns, group_ids, n_groups, stats)
    cells, combos, combo_of = shared[key]
    cell_group = cells.key_codes[:, 0]

    # One aggregation pass per distinct function: terms with different
    # functions share the factorization (the O(1) dispatch) but must
    # not share cell values.
    cells_by_func = {func: compute_aggregate(func, arg, False,
                                             cells.group_ids,
                                             cells.n_groups, stats)
                     for func in sorted({t.func for t in family.terms})}

    # Each term's combination (-1: no row has its values), then one
    # slot per distinct combination asked for; slot 0 receives no
    # cell and stands for the absent ones.
    find = combo_of.get
    term_combo = np.array([find(lookup, -1) for terms in family.terms
                           for lookup in terms.lookups], dtype=np.int64)
    asked = np.unique(term_combo[term_combo >= 0])
    n_slots = len(asked) + 1
    slot_of_combo = np.full(combos.n_groups + 1, -1, dtype=np.int64)
    slot_of_combo[asked] = np.arange(1, n_slots)
    slot_of_combo[-1] = 0          # what combination -1 reads
    term_slot = slot_of_combo[term_combo]
    cell_slot = slot_of_combo[combos.group_ids]
    hit = np.flatnonzero(cell_slot > 0)
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

    named = []
    at = 0
    for terms in family.terms:
        slots = term_slot[at:at + len(terms.lookups)]
        at += len(terms.lookups)
        sql_type, values, nulls = scattered[terms.func]
        if terms.else_zero:
            nulls = else_zero_nulls
        if terms.block is None:
            slot = slots[0]
            named.append((f"__agg{terms.index}",
                          ColumnData(sql_type, values[slot], nulls[slot])))
        else:
            store.put(terms.block.numbers[terms.cells],
                      (sql_type, values, nulls), slots)
    group_frame.add_columns(named)
    return True
