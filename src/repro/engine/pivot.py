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

The terms are read off the tree of each distinct aggregate call the
group rewrite bound (:func:`detect_families`).  A term the kernel
cannot reproduce bit for bit is declined -- by its tree or its ELSE
literal (:func:`_pattern`), by its columns and literal types
(:meth:`_Pattern.place`) or, for the typing of the THEN expression,
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
from repro.engine.binder import CallSlots, CellBlock, value_key
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


def detect_families(aggs: CallSlots, resolve) -> list[_Family]:
    """The families of two or more pivot-pattern aggregates among the
    statement's distinct aggregate calls and cell blocks, grouped by
    (pivot columns, THEN expression).  Each distinct call's tree is
    read once for the pattern (:func:`_pattern`), its columns resolved
    with ``resolve`` (:meth:`_Pattern.place`), and its pivot literals
    read off its conjuncts -- or, for a cell block, off its family's
    value matrix (:meth:`_Pattern.place_cells`).  A lone term gains
    nothing from the kernel and stays with the generic evaluator."""
    families: dict[tuple, _Family] = {}
    for entry in aggs.order:
        block = None if type(entry) is int else entry
        if block is not None and not len(block.own):
            continue
        pattern = _pattern(aggs.calls[entry] if block is None
                           else block.call)
        if pattern is None or pattern.cells != (block is not None):
            continue
        placed = pattern.place(resolve) if block is None \
            else pattern.place_cells(block)
        if placed is None:
            continue
        columns, lookups = placed
        # Terms of different calls share a family when their pivot
        # columns and THEN expressions agree.
        family_key = (tuple(columns), value_key(pattern.result, resolve))
        family = families.get(family_key)
        if family is None:
            family = families[family_key] = _Family(
                columns, pattern.result, [])
        family.terms.append(_Terms(
            pattern.func, pattern.else_zero, lookups,
            index=entry if block is None else None, block=block,
            cells=None if block is None else block.own))
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
    """A call of the pivot pattern, ``func(CASE WHEN c1 = v1 AND ...
    THEN result [ELSE literal] END)`` -- a conjunct may be ``c IS
    NULL`` --, as its conjuncts' columns and literals; or, with
    ``cells``, ``func(CASE WHEN MATCH THEN ...)``, a cell family's
    call, whose conjuncts are its family's.  ``else_zero``: it says
    ``ELSE 0``."""

    func: str
    conjuncts: tuple[tuple[ast.ColumnRef, Optional[ast.Literal]], ...]
    else_zero: bool
    result: ast.Expr
    cells: bool

    def place(self, resolve) -> Optional[tuple]:
        """The pivot columns by key (in key order) and the call's one
        lookup, its pivot values in that order (None for ``IS NULL``)
        -- or None when the kernel cannot reproduce the call."""
        values: dict[int, Any] = {}
        by_key: dict[int, ColumnData] = {}
        for ref, literal in self.conjuncts:
            column = resolve(ref)
            if id(column) in by_key or column.sql_type is None:
                return None
            if literal is not None and not _comparable(
                    column, type(literal.value), literal.value):
                return None
            values[id(column)] = None if literal is None else literal.value
            by_key[id(column)] = column
        keys = sorted(by_key)
        return ({key: by_key[key] for key in keys},
                [tuple([values[key] for key in keys])])

    def place_cells(self, block: CellBlock) -> Optional[tuple]:
        """:meth:`place` for a cell block: its BY columns are the pivot
        columns, and each cell's lookup its row of the family's value
        matrix, put in key order."""
        at: dict[int, int] = {}
        by_key: dict[int, ColumnData] = {}
        for j, column in enumerate(block.by_data):
            if id(column) in by_key or column.sql_type is None:
                return None
            of_type = {type(row[j]): row[j] for row in block.family.values}
            if not all(_comparable(column, kind, value)
                       for kind, value in of_type.items()
                       if value is not None):
                return None
            at[id(column)] = j
            by_key[id(column)] = column
        keys = sorted(by_key)
        return ({key: by_key[key] for key in keys},
                _lookups(block, tuple([at[key] for key in keys])))


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


def _pattern(call: ast.FuncCall) -> Optional[_Pattern]:
    """The pivot pattern of a call, or None when the call is no term
    the kernel can reproduce."""
    if call.name not in ("sum", "count", "min", "max", "avg") \
            or call.distinct or call.over is not None \
            or len(call.args) != 1 or call.default is not None:
        return None
    case = call.args[0]
    if type(case) is not ast.CaseWhen or len(case.whens) != 1:
        return None
    condition, result = case.whens[0]
    for node in ast.walk(result):
        # The generic evaluator charges a nested CASE once per term;
        # declining keeps the "linear" ledger equal to its own.
        if node is ast.MATCH or type(node) is ast.CaseWhen:
            return None
    conjuncts = []
    cells = condition is ast.MATCH
    for conjunct in () if cells else _split_conjuncts(condition):
        kind = type(conjunct)
        if kind is ast.IsNull and not conjunct.negated \
                and type(conjunct.operand) is ast.ColumnRef:
            conjuncts.append((conjunct.operand, None))
            continue
        if kind is not ast.BinaryOp or conjunct.op != "=":
            return None
        column, literal = conjunct.left, conjunct.right
        if type(column) is ast.Literal:
            column, literal = literal, column
        if type(column) is not ast.ColumnRef \
                or type(literal) is not ast.Literal:
            return None
        conjuncts.append((column, literal))
    else_zero = False
    if case.else_ is not None:
        if type(case.else_) is not ast.Literal:
            return None
        value = case.else_.value
        if value is not None:
            # ELSE 0 keeps the THEN expression's type and only turns a
            # missing cell's NULL into 0 under sum(); ``0.0`` would
            # widen an INTEGER sum, any other function would count or
            # compare the zeros.
            if type(value) is not int or value != 0 or call.name != "sum":
                return None
            else_zero = True
    return _Pattern(call.name, tuple(conjuncts), else_zero, result, cells)


def _split_conjuncts(expr: ast.Expr) -> list:
    """The conjuncts of a condition's top-level ``AND``s."""
    if type(expr) is ast.BinaryOp and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


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
