"""The select-list binder: one walk per select item, one rewrite per
grouped item.

The planner binds each select item (and HAVING) once, in :func:`bind`:
one walk of its tree finds whether it calls a window function, a
Vpct/Hpct/BY extension, ``grouping()`` / ``pct()`` or a plain
aggregate, and every later consumer reads the resulting
:class:`BoundExpr` instead of asking again.  A bare column reference
takes no walk (the result statement of a partitioned Hpct plan names
10,000).  A generated Hpct statement's cells (1,201 on the benchmark's
``hpct_wide``, 10,001 on Table 5's widest row) come as one
:class:`~repro.sql.ast.CellFamily` per term, bound and rewritten once
for all its cells.

The group rewrite (:class:`GroupRewrite`) rebuilds each item's tree
over the group frame: a grouping key becomes its ``__keyJ`` column, an
aggregate call its ``__aggI`` column, ``pct()`` its ``__pctI`` column,
``grouping()`` a :class:`GroupingMask` that :meth:`Rewritten.for_set`
fills, and a cell family's calls that hold its match one
:class:`CellBlock` each.  Calls are deduplicated, and keys matched, by
:func:`value_key`: a column is the identity of the array it resolves
to (``f.d``, ``d`` and ``D`` are one column), a literal its value
*and* type (``0``, ``0.0``, ``FALSE`` and ``NULL`` are four keys).
The pivot kernel reads its terms off the distinct calls' trees
(:func:`repro.engine.pivot.detect_families`).  docs/engine_internals.md,
"Select-list evaluation", has the whole design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.engine import groupingsets as gs_mod
from repro.engine.expressions import Frame
from repro.engine.types import type_from_name
from repro.errors import GroupingSetError, PlanningError, TypeMismatchError
from repro.sql import ast


class BoundExpr:
    """One select item (or HAVING) as the binder saw it: its tree --
    for a cell family, the family's template, and ``family`` the
    :class:`~repro.sql.ast.CellFamily` -- and whether it calls a window
    function, a Vpct/Hpct/BY extension, ``grouping()`` / ``pct()`` or
    a plain aggregate."""

    __slots__ = ("expr", "family", "windowed", "extended", "grouping",
                 "aggregate")

    def __init__(self, expr: ast.Expr,
                 family: Optional[ast.CellFamily] = None) -> None:
        self.expr, self.family = expr, family
        self.windowed = self.extended = False
        self.grouping = self.aggregate = False


def bind(item: Union[ast.Expr, ast.CellFamily]) -> BoundExpr:
    """``item`` -- an expression, or a cell family for all its cells --
    bound in one walk."""
    if type(item) is ast.ColumnRef:
        return BoundExpr(item)
    family = item if isinstance(item, ast.CellFamily) else None
    bound = BoundExpr(item if family is None else family.template, family)
    for node in ast.walk(bound.expr):
        if type(node) is ast.FuncCall:
            name, windowed = node.name, node.over is not None
            bound.windowed |= windowed
            bound.extended |= node.is_extended
            bound.grouping |= name in ast.GROUPING_SET_FUNCS
            bound.aggregate |= name in ast.AGGREGATE_NAMES and not windowed
        elif node is ast.MATCH and family is None:
            raise PlanningError("a cell match outside a cell family")
    return bound


def value_key(expr: ast.Expr, resolve: Callable[[ast.ColumnRef], Any]
              ) -> Any:
    """The key under which two expressions are one value: the tree,
    each literal by value and type, each CAST by its canonical type
    name, each ``t.*`` by its lower-cased table, and each column by the
    identity of the array ``resolve`` finds for it -- a bare column is
    that identity alone (an ``int``): grouping keys are usually plain
    columns.  Columns resolve in reading order."""
    kind = type(expr)
    if kind is ast.ColumnRef:
        return id(resolve(expr))
    if kind is ast.Literal:
        return type(expr.value), expr.value
    if kind is ast.BinaryOp:
        return (kind, expr.op, value_key(expr.left, resolve),
                value_key(expr.right, resolve))
    if kind is ast.FuncCall:
        over = expr.over
        return (kind, expr.name, expr.distinct,
                tuple([value_key(arg, resolve) for arg in expr.args]),
                None if expr.default is None
                else value_key(expr.default, resolve),
                expr.by_columns,
                None if over is None else tuple(
                    [value_key(e, resolve) for e in over.partition_by]))
    if kind is ast.CaseWhen:
        return (kind, tuple([(value_key(cond, resolve),
                              value_key(result, resolve))
                             for cond, result in expr.whens]),
                None if expr.else_ is None
                else value_key(expr.else_, resolve))
    if kind is ast.UnaryOp:
        return kind, expr.op, value_key(expr.operand, resolve)
    if kind is ast.IsNull:
        return kind, expr.negated, value_key(expr.operand, resolve)
    if kind is ast.InList:
        return (kind, expr.negated, value_key(expr.operand, resolve),
                tuple([value_key(item, resolve) for item in expr.items]))
    if kind is ast.Cast:
        return (kind, _type_key(expr.type_name),
                value_key(expr.operand, resolve))
    if kind is ast.Star:
        return kind, expr.table and expr.table.lower()
    if expr is ast.MATCH:
        return kind
    raise PlanningError(f"cannot bind expression node {expr!r}")


def _type_key(type_name: str) -> str:
    """A CAST's type name as a key keeps it: a known name in one
    spelling (``real`` and ``REAL`` are one type), an unknown one as
    written, for the error its evaluation raises."""
    try:
        type_from_name(type_name)
    except TypeMismatchError:
        return type_name
    return type_name.upper()


def with_windows(expr: ast.Expr,
                 windows: Callable[[ast.FuncCall], ast.Expr]) -> ast.Expr:
    """``expr`` with each window function call replaced by what
    ``windows`` returns for it, in reading order (nothing inside a call
    it replaces is offered to it)."""
    return ast.rebuild(expr, lambda node: windows(node)
                       if type(node) is ast.FuncCall
                       and node.over is not None else None)


# ----------------------------------------------------------------------
# The group rewrite
# ----------------------------------------------------------------------
class CellBlock:
    """An aggregate call inside a cell family, once per cell: ``call``
    (whose condition is :data:`~repro.sql.ast.MATCH`), the family, its
    BY columns' arrays, and for each cell the number of its aggregate
    among the statement's cell aggregates (``numbers``).  The block
    computes the cells ``own`` lists -- all of them, but for those an
    earlier block of the same call over the same columns has already
    numbered."""

    __slots__ = ("call", "family", "by_data", "numbers", "own")

    def __init__(self, call: ast.FuncCall, family: ast.CellFamily,
                 by_data: list, numbers: np.ndarray,
                 own: np.ndarray) -> None:
        self.call, self.family, self.by_data = call, family, by_data
        self.numbers, self.own = numbers, own


class CallSlots:
    """Distinct calls of one kind, each bound to a ``<prefix>N`` column
    of the group frame: call ``N`` is ``calls[N]``, the first call
    bound under its :func:`value_key`.

    The calls inside cell families are :class:`CellBlock` s, numbered
    apart: ``n_cells`` aggregates in all, one per distinct (call,
    cell).  ``order`` lists the calls (by number) and blocks as they
    were first bound."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.calls: list[ast.FuncCall] = []
        self.n_cells = 0
        self.order: list = []
        self._refs: dict[Any, ast.ColumnRef] = {}
        self._blocks_of: dict[tuple, list[CellBlock]] = {}
        self._cells_of: dict[tuple, dict] = {}

    def __len__(self) -> int:
        """How many distinct aggregates: calls and cells."""
        return len(self.calls) + self.n_cells

    def ref(self, call: ast.FuncCall, key: Any) -> ast.ColumnRef:
        """The group frame column of ``call``, bound under ``key``."""
        ref = self._refs.get(key)
        if ref is None:
            ref = self._refs[key] = ast.ColumnRef(
                f"{self.prefix}{len(self.calls)}")
            self.order.append(len(self.calls))
            self.calls.append(call)
        return ref

    def add_cells(self, call: ast.FuncCall, key: Any,
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
        block = CellBlock(call, family, by_data, numbers, own)
        earlier.append(block)
        self.order.append(block)
        return block


def _typed_row(row: tuple) -> tuple:
    return tuple([(type(value), value) for value in row])


@dataclass(frozen=True, slots=True)
class GroupingMask(ast.Expr):
    """Where a ``grouping()`` call's mask goes: the grouping keys its
    arguments are, by number (:meth:`Rewritten.for_set`)."""

    dims: tuple[int, ...]


class Rewritten:
    """A select item (or HAVING) over the group frame: its rewritten
    tree, whose placeholder columns are the group frame's, and whether
    it holds a :class:`GroupingMask`.  For a cell family, ``family`` is
    set and ``leaves`` maps each column the tree reads to the
    :class:`CellBlock` it stands for, or to None for a group frame
    column: the rewrite of every cell at once."""

    __slots__ = ("expr", "masked", "family", "leaves")

    def __init__(self, expr: ast.Expr, masked: bool = False,
                 family: Optional[ast.CellFamily] = None,
                 leaves: Optional[dict] = None) -> None:
        self.expr, self.masked = expr, masked
        self.family, self.leaves = family, leaves

    def for_set(self, set_dims: tuple[int, ...]) -> "Rewritten":
        """This item in the output of one grouping set: every
        ``grouping()`` folded to its mask literal."""
        if not self.masked:
            return self
        return Rewritten(ast.rebuild(self.expr, lambda node: ast.Literal(
            gs_mod.grouping_mask(node.dims, set_dims))
            if type(node) is GroupingMask else None))

    def tree(self, windows: Optional[Callable] = None) -> ast.Expr:
        """The tree; ``windows`` as in :func:`with_windows`."""
        return self.expr if windows is None \
            else with_windows(self.expr, windows)


class GroupRewrite:
    """The rewrite of a grouped statement's select items and HAVING
    onto its group frame: a grouping key becomes its ``__keyJ`` column,
    each distinct aggregate call its ``__aggI`` column, ``pct()`` its
    ``__pctI`` column and ``grouping()`` its mask (the planner admits
    those two only under CUBE/ROLLUP/GROUPING SETS).

    Errors come in the order a walk of the tree meets them: an unknown
    or ambiguous column raises at once (an item's columns are resolved
    first, in reading order, all but those of a malformed ``pct()``),
    and a column outside GROUP BY or a malformed ``grouping()`` /
    ``pct()`` is deferred to the end of its item, then the first in
    reading order raises.  When a grouping key is a whole expression,
    not a column, each subtree is looked up by its :func:`value_key`,
    outermost first."""

    def __init__(self, frame: Frame, keys: list[ast.Expr]) -> None:
        self.resolve = frame.resolve
        self._key_refs = [ast.ColumnRef(f"__key{j}")
                          for j in range(len(keys))]
        self._keys = {value_key(expr, self.resolve): j
                      for j, expr in enumerate(keys)}
        self._composite = any(type(expr) is not ast.ColumnRef
                              for expr in keys)
        self.aggs = CallSlots("__agg")
        self.pcts = CallSlots("__pct")

    def rewrite(self, bound: BoundExpr) -> Rewritten:
        """``bound`` over the group frame; a cell family's cells all at
        once, each aggregate call that holds the match bound as one
        :class:`CellBlock`."""
        expr, family, resolve = bound.expr, bound.family, self.resolve
        keys, key_refs, composite = self._keys, self._key_refs, \
            self._composite
        _resolve_columns(expr, resolve, family)
        by_data = None if family is None \
            else [resolve(ref) for ref in family.by]
        errors: list[Exception] = []
        leaves: dict[str, Optional[CellBlock]] = {}
        masked: list[bool] = []

        def read(ref: ast.ColumnRef) -> ast.ColumnRef:
            leaves[ref.name] = None
            return ref

        def visit(node: ast.Expr) -> Optional[ast.Expr]:
            kind = type(node)
            if kind is ast.ColumnRef:
                j = keys.get(id(resolve(node)))
                if j is not None:
                    return read(key_refs[j])
                errors.append(PlanningError(
                    f"column {node.name!r} must appear in GROUP BY or "
                    f"inside an aggregate"))
                return node
            if kind is ast.Literal:
                return node
            if node is ast.MATCH:
                raise PlanningError(
                    "a cell match must sit inside an aggregate call")
            windowed = kind is ast.FuncCall and node.over is not None
            if kind is ast.Star or windowed:
                if family is not None:
                    raise PlanningError(
                        "a cell family cannot hold a window function or *")
                if kind is ast.Star:
                    return node
            if composite:
                j = keys.get(value_key(node, resolve))
                if j is not None:
                    return read(key_refs[j])
            if kind is not ast.FuncCall or windowed:
                return None
            name, registry = node.name, self.aggs
            if name == "grouping":
                dims = tuple([keys.get(value_key(arg, resolve))
                              for arg in node.args])
                if not dims:
                    errors.append(GroupingSetError(
                        "grouping() requires at least one argument"))
                elif None in dims:
                    errors.append(GroupingSetError(
                        "grouping() arguments must be grouping columns "
                        "of the query", gs_mod.render_set(node.args)))
                else:
                    masked.append(True)
                    return GroupingMask(dims)
                return node
            if name == "pct":
                if _malformed_pct(node):
                    errors.append(GroupingSetError(
                        "pct() takes exactly one plain argument"))
                    return node
                registry = self.pcts
            elif name not in ast.AGGREGATE_NAMES:
                return None
            key = value_key(node, resolve)
            if family is None or not _holds_match(node):
                return read(registry.ref(node, key))
            if registry is not self.aggs:
                raise PlanningError(
                    "a cell match must sit inside an aggregate call")
            ref = ast.ColumnRef(f"__cell{len(leaves)}")
            leaves[ref.name] = self.aggs.add_cells(node, key, family,
                                                   by_data)
            return ref

        tree = ast.rebuild(expr, visit)
        if errors:
            raise errors[0]
        return Rewritten(tree, bool(masked), family, leaves)


def _resolve_columns(expr: ast.Expr, resolve: Callable,
                     family: Optional[ast.CellFamily]) -> None:
    """Resolve the columns of ``expr`` in reading order -- an unknown
    or ambiguous one raises here -- but for those of a malformed
    ``pct()``; a cell family's BY columns where its match stands."""
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.ColumnRef:
            resolve(node)
        elif node is ast.MATCH:
            for ref in family.by:
                resolve(ref)
        elif not (kind is ast.FuncCall and node.name == "pct"
                  and node.over is None and _malformed_pct(node)):
            ast.push_children(node, stack)


def _malformed_pct(call: ast.FuncCall) -> bool:
    return len(call.args) != 1 or call.distinct or bool(call.by_columns) \
        or call.default is not None


def _holds_match(expr: ast.Expr) -> bool:
    """Whether ``expr`` holds a cell family's match."""
    return any(node is ast.MATCH for node in ast.walk(expr))
