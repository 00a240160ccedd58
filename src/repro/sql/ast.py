"""Abstract syntax trees for the supported SQL subset.

The same expression nodes are used by the parser, the engine's
vectorized evaluator, the SQL formatter, and the percentage-query code
generator.  Statement nodes cover the subset the paper's generated code
needs:

* ``CREATE TABLE`` (column list or ``AS SELECT``), ``DROP TABLE``
* ``CREATE INDEX`` / ``DROP INDEX``
* ``INSERT INTO ... VALUES`` and ``INSERT INTO ... SELECT``
* ``SELECT`` with DISTINCT, comma/INNER/LEFT OUTER joins, WHERE,
  GROUP BY, HAVING, ORDER BY, LIMIT, window functions
* ``UPDATE ... SET ... [FROM ...] WHERE`` (join update, as used by the
  paper's UPDATE-based strategy)
* ``DELETE FROM``

The extension syntax of the paper -- ``Vpct(A BY ...)``,
``Hpct(A BY ...)`` and generalized ``sum(A BY ... DEFAULT ...)`` -- is
represented by a regular :class:`FuncCall` carrying ``by_columns`` and
``default``; the engine refuses to execute those directly (they must be
rewritten by :mod:`repro.core`), which mirrors the paper's architecture
of a code generator in front of a standard-SQL DBMS.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Iterable, Optional, Union


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
# Every node class is slotted: a generated Hpct plan builds hundreds of
# thousands of nodes, and a slotted frozen node is quicker to build and
# smaller to keep.
class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    """A constant; ``value is None`` represents the NULL literal."""

    value: Any


@dataclass(frozen=True, slots=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference, e.g. ``Fk.D1`` or ``A``."""

    name: str
    table: Optional[str] = None

    def key(self) -> str:
        """Canonical lower-case lookup key."""
        if self.table:
            return f"{self.table.lower()}.{self.name.lower()}"
        return self.name.lower()


@dataclass(frozen=True, slots=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list or ``count(*)``."""

    table: Optional[str] = None


@dataclass(frozen=True, slots=True)
class UnaryOp(Expr):
    """``-x`` or ``NOT x``."""

    op: str
    operand: Expr


@dataclass(frozen=True, slots=True)
class BinaryOp(Expr):
    """Arithmetic (+ - * /), comparison (= <> < <= > >=), AND, OR."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class IsNull(Expr):
    """``x IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class InList(Expr):
    """``x [NOT] IN (v1, v2, ...)`` with literal items."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class CaseWhen(Expr):
    """A searched CASE expression."""

    whens: tuple[tuple[Expr, Expr], ...]
    else_: Optional[Expr] = None


@dataclass(frozen=True, slots=True)
class Cast(Expr):
    """``CAST(x AS type-name)``."""

    operand: Expr
    type_name: str


@dataclass(frozen=True, slots=True)
class WindowSpec:
    """``OVER (PARTITION BY cols)`` -- the only window shape needed for
    the OLAP-extensions baseline."""

    partition_by: tuple[Expr, ...] = ()


@dataclass(frozen=True, slots=True)
class FuncCall(Expr):
    """A function call: scalar, aggregate, windowed aggregate, or one of
    the paper's extended aggregates.

    Attributes:
        name: lower-cased function name.
        args: argument expressions (empty for ``count(*)``, which uses a
            single :class:`Star` argument instead).
        distinct: ``count(DISTINCT x)``.
        by_columns: the paper's ``BY`` sub-grouping list -- non-empty
            only for the extended syntax (``Vpct``, ``Hpct`` or a
            standard aggregate used horizontally).
        default: the companion paper's ``DEFAULT`` replacement for NULL
            result cells (e.g. ``max(1 BY deptId DEFAULT 0)``).
        over: window specification, if windowed.
    """

    name: str
    args: tuple[Expr, ...] = ()
    distinct: bool = False
    by_columns: tuple[ColumnRef, ...] = ()
    default: Optional[Expr] = None
    over: Optional[WindowSpec] = None

    @property
    def is_extended(self) -> bool:
        """True for Vpct/Hpct or any aggregate carrying a BY clause."""
        return bool(self.by_columns) or self.name in ("vpct", "hpct")


#: Names the engine treats as plain aggregate functions.  var/stdev are
#: the "non-standard extensions to compute statistical functions" the
#: companion paper's introduction mentions alongside the standard five.
AGGREGATE_NAMES = frozenset({"sum", "count", "avg", "min", "max",
                             "var", "stdev"})

#: Function names only meaningful inside a grouping-sets query:
#: ``grouping(d1, ...)`` yields the per-set NULL-placeholder bitmask and
#: ``pct(m)`` the multi-level percentage against the parent lattice
#: level.  Both are computed by the shared-scan grouping-sets operator,
#: never by the scalar evaluator.
GROUPING_SET_FUNCS = frozenset({"grouping", "pct"})


# ----------------------------------------------------------------------
# GROUP BY grouping-set constructs
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Cube(Expr):
    """``CUBE (e1, ..., ek)`` inside GROUP BY: all 2**k subsets."""

    exprs: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Rollup(Expr):
    """``ROLLUP (e1, ..., ek)`` inside GROUP BY: the k+1 prefixes,
    finest first."""

    exprs: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class GroupingSets(Expr):
    """``GROUPING SETS ((a, b), (a), ())`` inside GROUP BY: an explicit
    list of grouping sets, each a (possibly empty) expression tuple."""

    sets: tuple[tuple[Expr, ...], ...]


#: The GROUP BY element types expanded by the grouping-sets planner.
GROUPING_CONSTRUCTS = (Cube, Rollup, GroupingSets)


def has_grouping_sets(select: "Select") -> bool:
    """True when the query's GROUP BY uses CUBE/ROLLUP/GROUPING SETS."""
    return any(isinstance(e, GROUPING_CONSTRUCTS)
               for e in select.group_by)


def contains_grouping_func(expr: Expr) -> bool:
    """True when ``expr`` calls ``grouping()`` or ``pct()``."""
    return any(isinstance(node, FuncCall)
               and node.name in GROUPING_SET_FUNCS
               for node in walk(expr))


# ----------------------------------------------------------------------
# FROM clause
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TableRef:
    """A base-table source, optionally aliased."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this source is known by inside the query."""
        return self.alias or self.name


@dataclass(frozen=True, slots=True)
class SubquerySource:
    """A derived table: ``(SELECT ...) alias``."""

    select: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


FromSource = Union[TableRef, SubquerySource]


@dataclass(frozen=True, slots=True)
class JoinStep:
    """One additional source joined onto the accumulating FROM clause.

    ``kind`` is ``cross`` (comma join; predicates live in WHERE),
    ``inner`` or ``left`` (with an ON condition).
    """

    kind: str
    source: FromSource
    on: Optional[Expr] = None


@dataclass(frozen=True, slots=True)
class FromClause:
    first: FromSource
    joins: tuple[JoinStep, ...] = ()

    def sources(self) -> list[FromSource]:
        return [self.first] + [j.source for j in self.joins]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Statement:
    """Base class for statement nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True, slots=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True, slots=True)
class CellMatch(Expr):
    """Where a :class:`CellFamily` template puts each cell's match
    (use the one instance, :data:`MATCH`)."""


MATCH = CellMatch()


def cell_match(by: tuple[ColumnRef, ...], values: tuple) -> Expr:
    """``by[0] = values[0] AND ...`` (``IS NULL`` for a NULL value):
    one conjunct per BY column, left-deep, as the parser reads ``a AND
    b AND c``."""
    match: Optional[Expr] = None
    for ref, value in zip(by, values):
        test = IsNull(ref) if value is None \
            else BinaryOp("=", ref, Literal(value))
        match = test if match is None else BinaryOp("AND", match, test)
    return match


@dataclass(frozen=True, slots=True)
class CellFamily:
    """A run of select items that differ only in one condition: item
    ``i`` is ``template`` with every :data:`MATCH` replaced by
    ``by[0] = values[i][0] AND ... AND by[-1] = values[i][-1]`` (``IS
    NULL`` for a NULL value), unaliased.

    The code generator writes the result columns of one Hpct/Hagg term
    (Section 3.2 of the paper) as one family instead of N trees, and
    the engine binds, aggregates and projects it as one block.  The
    formatter prints the N items; the parser never produces a family
    (:func:`expand_families` turns one into its items)."""

    template: Expr
    by: tuple[ColumnRef, ...]
    values: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.values)

    def match(self, i: int) -> Expr:
        """Cell ``i``'s condition."""
        return cell_match(self.by, self.values[i])

    def cell(self, i: int) -> Expr:
        """Cell ``i``'s select expression."""
        return with_match(self.template, self.match(i))

    def items(self) -> tuple[SelectItem, ...]:
        return tuple(SelectItem(self.cell(i)) for i in range(len(self)))


@dataclass(frozen=True, slots=True)
class Select(Statement):
    """``items`` are :class:`SelectItem` s, and -- in generated
    statements only -- :class:`CellFamily` runs of them."""

    items: tuple[Union[SelectItem, CellFamily], ...]
    from_: Optional[FromClause] = None
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """A run of adjacent columns of one written type in a CREATE TABLE
    (:func:`column_runs`): a 1,201-column FH table is declared in
    two."""

    names: tuple[str, ...]
    type_name: str


def column_runs(specs: Iterable[ColumnSpec]) -> tuple[ColumnSpec, ...]:
    """``specs`` with adjacent runs of one type name joined: the
    columns as the parser reads them back from the printed text."""
    return tuple(
        ColumnSpec(tuple(itertools.chain.from_iterable(
            spec.names for spec in run)), type_name)
        for type_name, run in itertools.groupby(
            specs, key=lambda spec: spec.type_name))


@dataclass(frozen=True, slots=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnSpec, ...]
    primary_key: tuple[str, ...] = ()
    if_not_exists: bool = False


@dataclass(frozen=True, slots=True)
class CreateTableAs(Statement):
    name: str
    select: Select


@dataclass(frozen=True, slots=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True, slots=True)
class CreateIndex(Statement):
    name: str
    table: str
    columns: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class DropIndex(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True, slots=True)
class InsertValues(Statement):
    table: str
    rows: tuple[tuple[Expr, ...], ...]
    columns: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class InsertSelect(Statement):
    table: str
    select: Select
    columns: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Assignment:
    column: str
    value: Expr


@dataclass(frozen=True, slots=True)
class Update(Statement):
    """``UPDATE t SET c = e, ... [FROM t2 [, t3 ...]] [WHERE p]``.

    The FROM list enables the paper's join-update strategy
    (``UPDATE Fk SET A = ... WHERE Fk.D1 = Fj.D1 ...``); each target
    row must match at most one joined row.
    """

    table: TableRef
    assignments: tuple[Assignment, ...]
    from_tables: tuple[TableRef, ...] = ()
    where: Optional[Expr] = None


@dataclass(frozen=True, slots=True)
class Delete(Statement):
    table: TableRef
    where: Optional[Expr] = None


@dataclass(frozen=True, slots=True)
class CreateView(Statement):
    """``CREATE VIEW name AS select`` -- the paper's Section 2 allows
    F to be "a view based on some complex SQL query"."""

    name: str
    select: Select


@dataclass(frozen=True, slots=True)
class DropView(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True, slots=True)
class CreateMaterializedView(Statement):
    """``CREATE MATERIALIZED VIEW name AS select`` -- snapshot a
    percentage/group-by query as delta-maintained per-group state."""

    name: str
    select: Select


@dataclass(frozen=True, slots=True)
class DropMaterializedView(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True, slots=True)
class RefreshMaterializedView(Statement):
    """``REFRESH MATERIALIZED VIEW name`` -- force a full recompute."""

    name: str


@dataclass(frozen=True, slots=True)
class Explain(Statement):
    """``EXPLAIN [ANALYZE] statement`` -- returns the evaluation plan
    as text; with ANALYZE the statement also *executes* and the plan is
    followed by the actuals span tree (rows and time per operator)."""

    statement: Statement
    analyze: bool = False


# ----------------------------------------------------------------------
# AST utilities
# ----------------------------------------------------------------------
def walk(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth first (parents
    before children, children left to right).  An explicit stack, not
    recursive generators, which would resume one generator per level
    for every node yielded."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        push_children(node, stack)


def push_children(node: Expr, stack: list) -> None:
    """Push ``node``'s children onto ``stack``, last child first, so
    they pop in reading order."""
    kind = type(node)
    if kind is Literal or kind is ColumnRef or kind is Star:
        return
    if kind is BinaryOp:
        stack += (node.right, node.left)
    elif kind is FuncCall:
        if node.over is not None:
            stack += node.over.partition_by[::-1]
        if node.default is not None:
            stack.append(node.default)
        stack += node.args[::-1]
    elif kind is CaseWhen:
        if node.else_ is not None:
            stack.append(node.else_)
        for cond, result in node.whens[::-1]:
            stack += (result, cond)
    elif kind is UnaryOp or kind is IsNull or kind is Cast:
        stack.append(node.operand)
    elif kind is InList:
        stack += node.items[::-1]
        stack.append(node.operand)
    elif kind is Cube or kind is Rollup:
        stack += node.exprs[::-1]
    elif kind is GroupingSets:
        for gset in node.sets[::-1]:
            stack += gset[::-1]


def contains_aggregate(expr: Expr) -> bool:
    """True when ``expr`` contains a non-windowed aggregate call."""
    return any(isinstance(node, FuncCall)
               and node.name in AGGREGATE_NAMES
               and node.over is None
               for node in walk(expr))


def contains_extended(expr: Expr) -> bool:
    """True when ``expr`` uses the Vpct/Hpct/BY extension syntax."""
    return any(isinstance(node, FuncCall) and node.is_extended
               for node in walk(expr))


def column_refs(expr: Expr) -> list[ColumnRef]:
    """Every column reference inside ``expr``, in walk order."""
    return [node for node in walk(expr) if isinstance(node, ColumnRef)]


def with_match(expr: Expr, match: Expr) -> Expr:
    """``expr`` with every :data:`MATCH` in it replaced by ``match``
    (its leaves shared, not copied)."""
    return rebuild(expr, lambda node: match if node is MATCH else None)


def rebuild(expr: Expr, visit) -> Expr:
    """``expr`` rebuilt in reading order: ``visit`` is offered each
    node, parents first, and returns its replacement -- or None to keep
    it and offer its children (a leaf is kept as it is)."""
    new = visit(expr)
    if new is not None:
        return new
    kind = type(expr)
    if kind is BinaryOp:
        return BinaryOp(expr.op, rebuild(expr.left, visit),
                        rebuild(expr.right, visit))
    if kind is CaseWhen:
        whens = tuple([(rebuild(c, visit), rebuild(r, visit))
                       for c, r in expr.whens])
        return CaseWhen(whens, None if expr.else_ is None
                        else rebuild(expr.else_, visit))
    if kind is FuncCall:
        args = tuple([rebuild(arg, visit) for arg in expr.args])
        default = None if expr.default is None \
            else rebuild(expr.default, visit)
        over = None if expr.over is None else WindowSpec(tuple(
            [rebuild(e, visit) for e in expr.over.partition_by]))
        return FuncCall(expr.name, args, expr.distinct, expr.by_columns,
                        default, over)
    if kind is UnaryOp:
        return UnaryOp(expr.op, rebuild(expr.operand, visit))
    if kind is IsNull:
        return IsNull(rebuild(expr.operand, visit), expr.negated)
    if kind is Cast:
        return Cast(rebuild(expr.operand, visit), expr.type_name)
    if kind is InList:
        return InList(rebuild(expr.operand, visit),
                      tuple([rebuild(i, visit) for i in expr.items]),
                      expr.negated)
    return expr


def expand_families(node):
    """``node`` -- a statement, a FROM clause or anything below -- with
    every :class:`CellFamily` of every SELECT in it replaced by the
    select items it stands for: the tree the parser reads back from the
    formatter's text.  Pure; the nodes without a family are returned
    as they are."""
    if isinstance(node, Expr) or not is_dataclass(node):
        return node
    changes = {}
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(node, Select) and f.name == "items":
            new = tuple(expanded for item in value
                        for expanded in (item.items()
                                         if isinstance(item, CellFamily)
                                         else (item,)))
            if len(new) == len(value) \
                    and all(a is b for a, b in zip(new, value)):
                new = value
        elif isinstance(value, tuple):
            new = tuple(expand_families(item) for item in value)
            if all(a is b for a, b in zip(new, value)):
                new = value
        else:
            new = expand_families(value)
        if new is not value:
            changes[f.name] = new
    return replace(node, **changes) if changes else node


def typed(node):
    """``node`` as nested tuples in which every literal carries the
    exact type of its value: two trees are the same statement only if
    their ``typed`` forms are equal.  Dataclass equality alone is not
    enough -- it takes ``Literal(1)``, ``Literal(1.0)``,
    ``Literal(True)`` and ``Literal(np.int64(1))`` for one another."""
    if isinstance(node, Literal):
        return ("Literal", type(node.value), repr(node.value))
    if is_dataclass(node):
        return (type(node),) + tuple(typed(getattr(node, f.name))
                                     for f in fields(node))
    if isinstance(node, tuple):
        return tuple(typed(item) for item in node)
    return node
