"""The select-list binder: one descent per select item, one analysis
per item shape.

A wide select list repeats a few trees over different columns and
literals.  So the planner descends each select item (and HAVING)
exactly once, in :meth:`Binder.bind`, and every later consumer reads
the resulting :class:`BoundExpr` instead of walking the tree again.
A generated Hpct statement's cells (1,201 on the benchmark's
``hpct_wide``, 10,001 on Table 5's widest row) come as one
:class:`~repro.sql.ast.CellFamily` per term, descended once for all
its cells (:meth:`Binder.bind_family`):

- the **template**: the tree with every column reference a ``COLUMN``
  leaf and every literal a ``LITERAL`` leaf, each other node ``(tag,
  *params, *children)``.  Equal templates are one object per statement,
  and what a template says -- does it call a window function, an
  aggregate, ``grouping()`` -- is worked out once, on its
  :class:`Shape`;
- the **columns** and **literals** the leaves stand for, in reading
  order, and the **calls** (every :class:`~repro.sql.ast.FuncCall`, in
  pre-order), so a subtree's columns and literals are one slice of
  each.

The group rewrite (:class:`GroupRewrite`) then compiles each shape
once into a flat program -- this column must be a grouping key, this
slice is an aggregate call, this literal stays -- and runs it over
each item's vectors; an aggregate call is deduplicated by its call
template, its literals (by value *and* type: ``0``, ``0.0``, ``FALSE``
and ``NULL`` are four keys) and the identities of the arrays its
columns resolve to, so ``f.d``, ``d`` and ``D`` are one column.  A
cell family's calls that hold its match are bound as one
:class:`CellBlock` each, for all its cells.  The pivot kernel reads
its terms off the same records
(:func:`repro.engine.pivot.detect_families`).  docs/engine_internals.md,
"Select-list evaluation", has the whole design.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.engine import groupingsets as gs_mod
from repro.engine.expressions import Frame
from repro.engine.types import type_from_name
from repro.errors import GroupingSetError, PlanningError, TypeMismatchError
from repro.sql import ast

#: Template leaves: the next column / literal of the vectors, in
#: reading order, and a cell family's match (:data:`ast.MATCH`), which
#: stands for no column and no literal of the vectors.
COLUMN = "c"
LITERAL = "l"
MATCH = "m"

#: Where a template node's children start: ``(tag, *params,
#: *children)``.
_CHILDREN = {"bin": 2, "case": 3, "func": 7, "un": 2, "isnull": 2,
             "in": 3, "cast": 2, "star": 2}


def children(template: tuple) -> tuple:
    """A non-leaf template's child templates, in reading order."""
    return template[_CHILDREN[template[0]]:]


class Shape:
    """What one template says, worked out once per statement: how many
    columns, literals and calls it spans, and whether it calls a window
    function, a Vpct/Hpct/BY extension, ``grouping()`` / ``pct()`` or a
    plain aggregate, and whether it holds a cell family's match."""

    __slots__ = ("template", "n_columns", "n_literals", "n_calls",
                 "windowed", "extended", "grouping", "aggregate",
                 "matched")

    def __init__(self, template: Any) -> None:
        self.template = template
        self.n_columns, self.n_literals, self.n_calls = sizes(template)
        self.windowed = self.extended = self.grouping = False
        self.aggregate = self.matched = False
        stack = [template]
        while stack:
            node = stack.pop()
            if node is COLUMN or node is LITERAL or node is MATCH:
                self.matched |= node is MATCH
                continue
            if node[0] == "func":
                _, name, _, _, _, by_columns, window = node[:7]
                self.windowed |= window is not None
                self.extended |= bool(by_columns) \
                    or name in ("vpct", "hpct")
                self.grouping |= name in ast.GROUPING_SET_FUNCS
                self.aggregate |= name in ast.AGGREGATE_NAMES \
                    and window is None
            stack.extend(children(node))


class BoundExpr:
    """One select item (or HAVING) as the binder saw it: its shape and
    where its columns, literals and calls start in the binder's
    vectors (one object per item: a wide list's records outlive many
    collections of the young generation).  For a cell family,
    ``family`` is the :class:`~repro.sql.ast.CellFamily` and the shape
    its template's: one record for all its cells."""

    __slots__ = ("binder", "shape", "c0", "l0", "f0", "family")

    def __init__(self, binder: "Binder", shape: Shape, c0: int, l0: int,
                 f0: int, family: Optional[ast.CellFamily] = None
                 ) -> None:
        self.binder, self.shape = binder, shape
        self.c0, self.l0, self.f0 = c0, l0, f0
        self.family = family

    @property
    def columns(self) -> list[ast.ColumnRef]:
        return self.binder.columns[self.c0:self.c0 + self.shape.n_columns]

    @property
    def literals(self) -> tuple:
        return tuple(self.binder.literals[
            self.l0:self.l0 + self.shape.n_literals])

    @property
    def calls(self) -> list[ast.FuncCall]:
        return self.binder.calls[self.f0:self.f0 + self.shape.n_calls]

    def tree(self, windows: Optional[Callable] = None) -> ast.Expr:
        """The expression, rebuilt; ``windows`` as in :func:`build`."""
        return build(self.shape.template, self.columns, self.literals,
                     windows)


class Binder:
    """Binds the expressions of one statement.  ``columns``,
    ``literals`` and ``calls`` hold every bound expression's, end to
    end."""

    def __init__(self) -> None:
        self.shapes: dict[tuple, Shape] = {}
        self.columns: list[ast.ColumnRef] = []
        self.literals: list[Any] = []
        self.calls: list[ast.FuncCall] = []

    def bind(self, expr: ast.Expr) -> BoundExpr:
        columns, literals, calls = self.columns, self.literals, self.calls
        c0, l0, f0 = len(columns), len(literals), len(calls)
        if type(expr) is ast.ColumnRef:
            # A bare column: the result statement of a partitioned Hpct
            # plan names 10,000.
            columns.append(expr)
            key = (COLUMN,)
        else:
            tokens: list = []
            _flatten(expr, tokens, columns, literals, calls)
            key = tuple(tokens)
        shape = self._shape(key)
        if shape.matched:
            raise PlanningError("a cell match outside a cell family")
        return BoundExpr(self, shape, c0, l0, f0)

    def bind_family(self, family: ast.CellFamily) -> BoundExpr:
        """All the cells of ``family`` in one descent: its template's
        shape and vectors; the BY columns and values stay on the
        family."""
        columns, literals, calls = self.columns, self.literals, self.calls
        c0, l0, f0 = len(columns), len(literals), len(calls)
        tokens: list = []
        _flatten(family.template, tokens, columns, literals, calls)
        return BoundExpr(self, self._shape(tuple(tokens)), c0, l0, f0,
                         family)

    def _shape(self, key: tuple) -> Shape:
        """The one shape of a pre-order token stream."""
        shape = self.shapes.get(key)
        if shape is None:
            shape = self.shapes[key] = Shape(_nest(iter(key)))
        return shape


#: One head object per binary operator: a cell's template repeats
#: them, and equal objects compare fast.
_BIN_HEADS = {op: ("bin", op) for op in ("AND", "OR", "=", "<>", "<",
                                          "<=", ">", ">=", "+", "-",
                                          "*", "/")}


_CASE, _CASE_ELSE = ("case", 1, False), ("case", 1, True)


def _flatten(expr: ast.Expr, tokens: list, columns: list, literals: list,
             calls: list) -> None:
    """The one descent: ``expr`` in pre-order, one token per node --
    ``COLUMN``, ``LITERAL`` or a node's head, ``(tag, *params)`` --
    with its columns, literals and calls appended in reading order.
    An explicit stack, not recursion: a call per node would cost more
    than the node."""
    stack = [expr]
    pop, push, token = stack.pop, stack.append, tokens.append
    while stack:
        node = pop()
        kind = type(node)   # exact types, most frequent first
        if kind is ast.ColumnRef:
            token(COLUMN)
            columns.append(node)
        elif kind is ast.Literal:
            token(LITERAL)
            literals.append(node.value)
        elif kind is ast.BinaryOp:
            token(_BIN_HEADS.get(node.op) or ("bin", node.op))
            push(node.right)
            push(node.left)
        elif kind is ast.CaseWhen:
            whens, else_ = node.whens, node.else_
            if else_ is not None:
                push(else_)
            if len(whens) == 1:
                # A generated cell's every CASE: no head to build.
                token(_CASE_ELSE if else_ is not None else _CASE)
                cond, result = whens[0]
                push(result)
                push(cond)
            else:
                token(("case", len(whens), else_ is not None))
                for cond, result in whens[::-1]:
                    push(result)
                    push(cond)
        elif kind is ast.FuncCall:
            calls.append(node)
            over = node.over
            token(("func", node.name, node.distinct, len(node.args),
                   node.default is not None, node.by_columns,
                   None if over is None else len(over.partition_by)))
            if over is not None:
                stack += over.partition_by[::-1]
            if node.default is not None:
                push(node.default)
            stack += node.args[::-1]
        elif kind is ast.UnaryOp:
            token(("un", node.op))
            push(node.operand)
        elif kind is ast.IsNull:
            token(("isnull", node.negated))
            push(node.operand)
        elif kind is ast.InList:
            token(("in", node.negated, len(node.items)))
            stack += node.items[::-1]
            push(node.operand)
        elif kind is ast.Cast:
            token(("cast", _type_key(node.type_name)))
            push(node.operand)
        elif kind is ast.Star:
            token(("star", node.table and node.table.lower()))
        elif kind is ast.CellMatch:
            token(MATCH)
        else:
            raise PlanningError(f"cannot bind expression node {node!r}")


def _nest(tokens) -> Any:
    """The template a pre-order token stream spells (once per shape)."""
    head = next(tokens)
    if head is COLUMN or head is LITERAL or head is MATCH:
        return head
    tag = head[0]
    if tag == "bin":
        arity = 2
    elif tag == "case":
        arity = 2 * head[1] + head[2]
    elif tag == "func":
        arity = head[3] + head[4] + (head[6] or 0)
    elif tag == "in":
        arity = 1 + head[2]
    elif tag == "star":
        arity = 0
    else:
        arity = 1
    return (*head, *[_nest(tokens) for _ in range(arity)])


def _type_key(type_name: str) -> str:
    """A CAST's type name as a template keeps it: a known name in one
    spelling (``real`` and ``REAL`` are one type), an unknown one as
    written, for the error its evaluation raises."""
    try:
        type_from_name(type_name)
    except TypeMismatchError:
        return type_name
    return type_name.upper()


def build(template: Any, columns, literals,
          windows: Optional[Callable[[ast.FuncCall], ast.Expr]] = None
          ) -> ast.Expr:
    """The tree ``template`` stands for over ``columns`` and
    ``literals``.  ``windows``, when given, replaces each window
    function call, in reading order, outermost first (nothing inside a
    call it replaces is offered to it)."""
    return _build(template, iter(columns), iter(literals), windows)


def _build(template: Any, columns, literals, windows) -> ast.Expr:
    if template is COLUMN:
        return next(columns)
    if template is LITERAL:
        return ast.Literal(next(literals))
    if template is MATCH:
        return ast.MATCH
    tag = template[0]
    if tag == "star":
        return ast.Star(template[1])
    window = tag == "func" and template[6] is not None
    inner = None if window else windows
    kids = [_build(child, columns, literals, inner)
            for child in children(template)]
    if tag == "bin":
        return ast.BinaryOp(template[1], kids[0], kids[1])
    if tag == "case":
        pairs = template[1] * 2
        return ast.CaseWhen(tuple(zip(kids[0:pairs:2], kids[1:pairs:2])),
                            kids[pairs] if template[2] else None)
    if tag == "un":
        return ast.UnaryOp(template[1], kids[0])
    if tag == "isnull":
        return ast.IsNull(kids[0], template[1])
    if tag == "in":
        return ast.InList(kids[0], tuple(kids[1:]), template[1])
    if tag == "cast":
        return ast.Cast(kids[0], template[1])
    _, name, distinct, n_args, has_default, by_columns, n_window = \
        template[:7]
    over = None if n_window is None \
        else ast.WindowSpec(tuple(kids[len(kids) - n_window:]))
    call = ast.FuncCall(name, tuple(kids[:n_args]), distinct, by_columns,
                        kids[n_args] if has_default else None, over)
    return windows(call) if window and windows is not None else call


def sizes(template: Any) -> tuple[int, int, int]:
    """How many columns, literals and calls ``template`` spans."""
    if template is COLUMN:
        return 1, 0, 0
    if template is LITERAL:
        return 0, 1, 0
    if template is MATCH:
        return 0, 0, 0
    n_columns, n_literals, n_calls = 0, 0, template[0] == "func"
    for child in children(template):
        c, l, f = sizes(child)
        n_columns, n_literals, n_calls = \
            n_columns + c, n_literals + l, n_calls + f
    return n_columns, n_literals, n_calls


def value_key(template: Any, literals: tuple, data: list) -> Any:
    """The key under which two bound expressions are one value: the
    template, the literals by value and type, and the identities of
    the arrays the columns resolve to.  A bare column is that identity
    alone (an ``int``): grouping keys are usually plain columns."""
    if template is COLUMN:
        return id(data[0])
    return (template, literals, tuple(map(type, literals)),
            tuple(map(id, data)))


def expression_key(expr: ast.Expr, frame: Frame) -> Any:
    """:func:`value_key` of one expression over ``frame``: how a
    GROUP BY key or a grouping-sets dimension is matched."""
    bound = Binder().bind(expr)
    return value_key(bound.shape.template, bound.literals,
                     [frame.resolve(ref) for ref in bound.columns])


# ----------------------------------------------------------------------
# The group rewrite
# ----------------------------------------------------------------------
class CellBlock:
    """An aggregate call inside a cell family, once per cell: ``call``
    (whose condition is :data:`~repro.sql.ast.MATCH`) and ``key`` as a
    :class:`CallSlots` call has them, the family, its BY columns'
    arrays, and for each cell the number of its aggregate among the
    statement's cell aggregates (``numbers``).  The block computes the
    cells ``own`` lists -- all of them, but for those an earlier block
    of the same call over the same columns has already numbered."""

    __slots__ = ("call", "key", "family", "by_data", "numbers", "own")

    def __init__(self, call: ast.FuncCall, key: tuple,
                 family: ast.CellFamily, by_data: list,
                 numbers: np.ndarray, own: np.ndarray) -> None:
        self.call, self.key, self.family = call, key, family
        self.by_data, self.numbers, self.own = by_data, numbers, own


class CallSlots:
    """Distinct calls of one kind, each bound to a ``<prefix>N`` column
    of the group frame and to a slot of the rewrite.  Call ``N`` is
    ``calls[N]``, the first call bound under ``keys[N]`` -- ``(call
    template number, its literals' types, the ids of the arrays its
    columns resolve to, *its literals)``; ``templates`` and ``data``
    (shared with the rewrite) turn a key's template number and ids back
    into the call template and the columns.

    The calls inside cell families are :class:`CellBlock` s
    (``blocks``), numbered apart: ``n_cells`` aggregates in all, one
    per distinct (call, cell).  ``order`` lists the calls (by number)
    and blocks as they were first bound."""

    def __init__(self, prefix: str, slots: list[str], templates: list,
                 data: dict) -> None:
        # The rewrite's slot list, not the rewrite: no cycle keeps a
        # statement's frame alive past it.
        self.prefix, self._slots = prefix, slots
        self.templates, self.data = templates, data
        self.calls: list[ast.FuncCall] = []
        self.keys: list[tuple] = []
        self.slot_of: dict[tuple, int] = {}
        self.blocks: list[CellBlock] = []
        self.n_cells = 0
        self.order: list = []
        self._blocks_of: dict[tuple, list[CellBlock]] = {}
        self._cells_of: dict[tuple, dict] = {}

    def __len__(self) -> int:
        """How many distinct aggregates: calls and cells."""
        return len(self.calls) + self.n_cells

    def add(self, call: ast.FuncCall, key: tuple) -> int:
        slot = self.slot_of[key] = len(self._slots)
        self._slots.append(f"{self.prefix}{len(self.calls)}")
        self.order.append(len(self.calls))
        self.calls.append(call)
        self.keys.append(key)
        return slot

    def add_cells(self, call: ast.FuncCall, key: tuple,
                  family: ast.CellFamily, by_data: list) -> CellBlock:
        """The block of ``call`` (bound under ``key``) over the cells of
        ``family``, whose BY columns resolve to ``by_data``."""
        block_key = (key, tuple(map(id, by_data)))
        earlier = self._blocks_of.setdefault(block_key, [])
        n, first = len(family), self.n_cells
        if not earlier:
            own = np.arange(n)
            numbers = own + first
            self.n_cells += n
        else:
            # The same call over the same columns in two families of
            # one statement (two terms, or two FH partitions' cuts):
            # a cell is one aggregate per value tuple, by value and
            # type, as one call per literal tuple is.
            cells = self._cells_of.get(block_key)
            if cells is None:
                cells = self._cells_of[block_key] = {
                    _typed_row(row): number for block in earlier
                    for row, number in zip(block.family.values,
                                           block.numbers.tolist())}
            numbers_of, owned = [], []
            for i, row in enumerate(family.values):
                number = cells.setdefault(_typed_row(row), self.n_cells)
                if number == self.n_cells:
                    self.n_cells += 1
                    owned.append(i)
                numbers_of.append(number)
            numbers = np.array(numbers_of, dtype=np.int64)
            own = np.array(owned, dtype=np.int64)
        block = CellBlock(call, key, family, by_data, numbers, own)
        earlier.append(block)
        self.blocks.append(block)
        self.order.append(block)
        return block


def _typed_row(row: tuple) -> tuple:
    return tuple([(type(value), value) for value in row])


class Rewritten:
    """A select item (or HAVING) over the group frame: its program
    (:class:`_Program`, whose template it instantiates), the slots its
    placeholders bind (:attr:`GroupRewrite.slots`), its literals, and
    -- under grouping sets -- which literals are the masks of its
    ``grouping()`` calls.  For a cell family, ``family`` is set and a
    placeholder inside a cell aggregate binds a :class:`CellBlock`
    instead of a slot: the rewrite of every cell at once."""

    __slots__ = ("program", "leaves", "literals", "masks", "family")

    def __init__(self, program: "_Program", leaves: tuple,
                 literals: tuple, masks: tuple,
                 family: Optional[ast.CellFamily] = None) -> None:
        self.program, self.leaves = program, leaves
        self.literals, self.masks = literals, masks
        self.family = family

    def for_set(self, set_dims: tuple[int, ...]) -> "Rewritten":
        """This item in the output of one grouping set: every
        ``grouping()`` folded to its mask literal."""
        if not self.masks:
            return self
        literals = list(self.literals)
        for position, arg_dims in self.masks:
            literals[position] = gs_mod.grouping_mask(arg_dims, set_dims)
        return Rewritten(self.program, self.leaves, tuple(literals), ())

    def tree(self, slots: list[str],
             windows: Optional[Callable] = None) -> ast.Expr:
        return build(self.program.template,
                     [ast.ColumnRef(slots[s]) for s in self.leaves],
                     self.literals, windows)


class _Program:
    """A shape compiled for the rewrite: the steps that bind its slots
    in reading order, the rewritten template, where each of its
    literals comes from (an item literal's position, or None for a
    ``grouping()`` mask), whether it calls no window function and
    holds no ``*``, and the columns an item resolves (None: all of
    them)."""

    __slots__ = ("steps", "template", "literals", "windowless",
                 "resolve")

    def __init__(self, steps, template, literals, windowless, resolve):
        self.steps, self.template, self.literals = steps, template, \
            literals
        self.windowless = windowless
        self.resolve = resolve


# Program steps (see GroupRewrite._compile).
_COLUMN, _KEY, _CALL, _GROUPING, _ERROR, _CELLS = range(6)


class GroupRewrite:
    """The rewrite of a grouped statement's select items and HAVING
    onto its group frame: a grouping key becomes its ``__keyI`` column,
    each distinct aggregate call its ``__aggI`` column, ``pct()`` its
    ``__pctI`` column and ``grouping()`` its mask literal (the planner
    admits those two only under CUBE/ROLLUP/GROUPING SETS).  Key ``I``
    is slot ``I``.

    Each shape is compiled once (:meth:`_compile`) into a program that
    runs over each item's vectors.  Errors are what a walk of the tree
    raises, in the same order: an unknown or ambiguous column raises
    at once (the item's columns are resolved first, in reading order,
    all but those of a malformed ``pct()``), and a column outside
    GROUP BY or a malformed ``grouping()`` / ``pct()`` is deferred to
    the end of its expression, then the first in reading order raises.
    When a grouping key is a whole expression, not a column, every
    column of an item is resolved and each subtree that could equal a
    key is looked up; the item's program then depends on which did."""

    def __init__(self, frame: Frame, keys: list[ast.Expr]) -> None:
        self.frame = frame
        #: The name of every distinct group frame column the rewritten
        #: items read, by slot.
        self.slots = [f"__key{j}" for j in range(len(keys))]
        self._keys: dict[Any, int] = {}
        self._key_templates: set = set()
        for j, expr in enumerate(keys):
            bound = Binder().bind(expr)
            template = bound.shape.template
            self._key_templates.add(template)
            self._keys[value_key(template, bound.literals, [
                frame.resolve(ref) for ref in bound.columns])] = j
        self._composite = any(t is not COLUMN for t in self._key_templates)
        #: Call templates by number, and the columns of each distinct
        #: tuple of array ids a call was bound with.
        self.call_templates: list = []
        self.data: dict[tuple, tuple] = {}
        self.aggs = CallSlots("__agg", self.slots, self.call_templates,
                              self.data)
        self.pcts = CallSlots("__pct", self.slots, self.call_templates,
                              self.data)
        self._template_numbers: dict[Any, int] = {}
        self._programs: dict[Any, _Program] = {}
        self._interned: dict[tuple, tuple] = {}
        self._values: dict[tuple, tuple] = {}
        self._found: dict[Shape, list] = {}
        self._matched: dict[Any, bool] = {}

    @property
    def shapes(self) -> int:
        """How many item shapes were analysed (compiled)."""
        return len(self._programs)

    def rewrite(self, bound: BoundExpr) -> Rewritten:
        """``bound`` over the group frame; a cell family's cells all at
        once, each aggregate call that holds the match bound as one
        :class:`CellBlock`."""
        binder, shape = bound.binder, bound.shape
        c0, l0, f0 = bound.c0, bound.l0, bound.f0
        columns = binder.columns[c0:c0 + shape.n_columns]
        literals = tuple(binder.literals[l0:l0 + shape.n_literals])
        resolve = self.frame.resolve
        family, by_data = bound.family, None
        if family is not None or self._composite:
            if family is None:
                data = list(map(resolve, columns))
            else:
                # The BY columns resolve where a cell's match stands in
                # reading order.
                at = _columns_before_match(shape.template)
                at = len(columns) if at is None else at
                data = list(map(resolve, columns[:at]))
                by_data = list(map(resolve, family.by))
                data += map(resolve, columns[at:])
            program = self._program(shape, tuple(
                self._keys.get(value_key(t, literals[a:b], data[c:d]))
                for t, c, d, a, b in self._candidates(shape))
                if self._composite else ())
            if family is not None and not program.windowless:
                raise PlanningError(
                    "a cell family cannot hold a window function or *")
        else:
            program = self._program(shape, ())
            data = list(map(resolve, columns)) if program.resolve is None \
                else [resolve(ref) if i in program.resolve else None
                      for i, ref in enumerate(columns)]
        leaves: list[int] = []
        masks = []
        error: Optional[Exception] = None
        for step in program.steps:
            tag = step[0]
            if tag is _CALL or tag is _CELLS:
                _, registry, tid, c, d, a, b, f = step
                call_literals = literals[a:b]
                resolved = data[c:d]
                # The types and ids of a wide list's calls repeat: one
                # copy of each outlives this item.
                types = tuple(map(type, call_literals))
                types = self._interned.setdefault(types, types)
                ids = tuple(map(id, resolved))
                ids = self._interned.setdefault(ids, ids)
                if ids not in self.data:
                    self.data[ids] = tuple(resolved)
                key = (tid, types, ids, *call_literals)
                if tag is _CELLS:
                    leaves.append(registry.add_cells(
                        binder.calls[f0 + f], key, family, by_data))
                    continue
                slot = registry.slot_of.get(key)
                if slot is None:
                    slot = registry.add(binder.calls[f0 + f], key)
                leaves.append(slot)
            elif tag is _COLUMN:
                slot = self._keys.get(id(data[step[1]]))
                if slot is not None:
                    leaves.append(slot)
                elif error is None:
                    error = PlanningError(
                        f"column {columns[step[1]].name!r} must appear in "
                        f"GROUP BY or inside an aggregate")
            elif tag is _KEY:
                leaves.append(step[1])
            elif tag is _GROUPING:
                _, position, f, args = step
                arg_dims = tuple(
                    self._keys.get(value_key(t, literals[a:b], data[c:d]))
                    for t, c, d, a, b in args)
                if None not in arg_dims:
                    masks.append((position, arg_dims))
                elif error is None:
                    error = GroupingSetError(
                        "grouping() arguments must be grouping columns "
                        "of the query",
                        gs_mod.render_set(binder.calls[f0 + f].args))
            elif error is None:   # _ERROR
                error = GroupingSetError(step[1])
        if error is not None:
            raise error
        values = tuple([None if i is None else literals[i]
                        for i in program.literals])
        # Items share a few literal vectors: keep one copy of each (by
        # value and type: 0, 0.0 and FALSE are three vectors).
        values = self._values.setdefault(
            (values, tuple(map(type, values))), values)
        return Rewritten(program, tuple(leaves), values, tuple(masks),
                         family)

    # ------------------------------------------------------------------
    def _program(self, shape: Shape, matches: tuple) -> _Program:
        """``shape`` compiled, given which of its key-shaped subtrees
        matched a key."""
        key = (shape, matches)
        program = self._programs.get(key)
        if program is None:
            steps: list[tuple] = []
            state = [0, 0, 0, iter(matches), True, [], set()]
            template = self._compile(shape.template, steps, state)
            skipped = state[6]
            program = self._programs[key] = _Program(
                steps, template, tuple(state[5]), state[4],
                frozenset(set(range(state[0])) - skipped) if skipped
                else None)
        return program

    def _compile(self, template: Any, steps: list, state: list) -> Any:
        """Append ``template``'s steps; return its rewrite's template.
        ``state`` is ``[column, literal, call, matches, windowless,
        literal sources, skipped columns]``: the positions reached in
        the item's vectors, the key matches still to consume, whether
        the rewrite holds no window call and no ``*``, where the
        rewrite's literals come from, and the columns no step reads."""
        if template is COLUMN:
            steps.append((_COLUMN, state[0]))
            state[0] += 1
            return COLUMN
        if template is LITERAL:
            state[5].append(state[1])
            state[1] += 1
            return LITERAL
        if template is MATCH:
            raise PlanningError(
                "a cell match must sit inside an aggregate call")
        tag = template[0]
        if tag == "star":
            state[4] = False
            return template
        if self._composite and template in self._key_templates:
            slot = next(state[3])
            if slot is not None:
                self._skip(template, state)
                steps.append((_KEY, slot))
                return COLUMN
        if self._replaced(template):
            c0, l0, f = state[0], state[1], state[2]
            self._skip(template, state)
            name = template[1]
            if name == "grouping":
                if not children(template):
                    steps.append((_ERROR, "grouping() requires at least "
                                          "one argument"))
                else:
                    steps.append((_GROUPING, len(state[5]), f,
                                  _spans(template, c0, l0)))
                state[5].append(None)
                return LITERAL
            registry = self.aggs
            if name == "pct":
                _, _, distinct, n_args, has_default, by_columns = \
                    template[:6]
                if n_args != 1 or distinct or by_columns or has_default:
                    steps.append((_ERROR, "pct() takes exactly one plain "
                                          "argument"))
                    state[6].update(range(c0, state[0]))
                    return COLUMN
                registry = self.pcts
            tid = self._template_numbers.get(template)
            if tid is None:
                tid = self._template_numbers[template] = \
                    len(self.call_templates)
                self.call_templates.append(template)
            matched = self._matched.get(template)
            if matched is None:
                matched = self._matched[template] = holds_match(template)
            if matched and registry is not self.aggs:
                raise PlanningError(
                    "a cell match must sit inside an aggregate call")
            steps.append((_CELLS if matched else _CALL, registry, tid,
                          c0, state[0], l0, state[1], f))
            return COLUMN
        if tag == "func":
            state[2] += 1
            if template[6] is not None:
                state[4] = False
        start = _CHILDREN[tag]
        return (*template[:start],
                *[self._compile(child, steps, state)
                  for child in template[start:]])

    def _replaced(self, template: Any) -> bool:
        """Whether the rewrite replaces this node whole: an aggregate
        call or a grouping-sets function (the planner keeps the latter
        out of a statement without a CUBE/ROLLUP/GROUPING SETS
        clause)."""
        if template[0] != "func" or template[6] is not None:
            return False
        return template[1] in ast.AGGREGATE_NAMES \
            or template[1] in ast.GROUPING_SET_FUNCS

    def _skip(self, template: Any, state: list) -> None:
        """Move ``state`` past a subtree the rewrite replaces whole,
        and past the key lookups made inside it."""
        n_columns, n_literals, n_calls = sizes(template)
        state[0] += n_columns
        state[1] += n_literals
        state[2] += n_calls
        if self._composite:
            for _ in range(len(self._scan(template, [0, 0], [])) - 1):
                next(state[3])

    def _candidates(self, shape: Shape) -> list[tuple]:
        """The subtrees a composite key could equal, in reading order,
        as ``(template, column span, literal span)``: every one whose
        template is a key's, outside the calls the rewrite replaces.
        Found once per shape."""
        found = self._found.get(shape)
        if found is None:
            found = self._found[shape] = self._scan(shape.template,
                                                    [0, 0], [])
        return found

    def _scan(self, template: Any, at: list, found: list) -> list:
        if template is MATCH:
            return found
        if template is COLUMN or template is LITERAL:
            at[template is LITERAL] += 1
            return found
        c0, l0 = at
        index = len(found)
        if template[0] != "star" and template in self._key_templates:
            found.append(None)
        if self._replaced(template):
            n_columns, n_literals, _ = sizes(template)
            at[0] += n_columns
            at[1] += n_literals
        else:
            for child in children(template):
                self._scan(child, at, found)
        if index < len(found) and found[index] is None:
            found[index] = (template, c0, at[0], l0, at[1])
        return found


def holds_match(template: Any) -> bool:
    """Whether ``template`` holds a cell family's match."""
    return _columns_before_match(template) is not None


def _columns_before_match(template: Any) -> Optional[int]:
    """How many columns ``template`` spans before its first
    :data:`MATCH`, in reading order; None when it holds none."""
    count = 0
    stack = [template]
    while stack:
        node = stack.pop()
        if node is MATCH:
            return count
        if node is COLUMN:
            count += 1
        elif node is not LITERAL and node is not MATCH:
            stack.extend(reversed(children(node)))
    return None


def _spans(call: Any, c0: int, l0: int) -> tuple:
    """Each argument of ``call`` as ``(template, column span, literal
    span)``, the call's first column and literal at ``c0`` / ``l0``."""
    spans = []
    for arg in children(call):
        n_columns, n_literals, _ = sizes(arg)
        spans.append((arg, c0, c0 + n_columns, l0, l0 + n_literals))
        c0, l0 = c0 + n_columns, l0 + n_literals
    return tuple(spans)
