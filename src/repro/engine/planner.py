"""SELECT planning: one :class:`SelectPlan` value per SELECT, built
from catalog schemas alone.

:func:`plan_select` classifies the FROM sources, infers every source's
output column names statically, plans the joins and fixes the
evaluation mode and select list.  ``Executor.run_select`` executes
that value and ``EXPLAIN`` renders the same one, so the static plan
cannot drift from what runs.

The paper's generated SQL writes joins in the classic comma form::

    FROM Fj, Fk WHERE Fj.D1 = Fk.D1 AND ... AND Fj.Dj = Fk.Dj

so :func:`plan_from` must recover equi-join keys from the WHERE
conjunction.  Explicit ``[LEFT OUTER] JOIN ... ON`` clauses (used by
the SPJ strategy of the companion paper) are planned directly from
their ON condition.  Predicates that are not equi-join keys are
returned as residual filters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.engine import groupingsets
from repro.engine.binder import BoundExpr, bind
from repro.errors import GroupingSetError, PlanningError
from repro.sql import ast


@dataclass
class PlannedSource:
    """One FROM source, classified from the catalog: a base ``table``,
    a ``view`` or ``derived`` table (both run ``plan``), or a
    ``matview`` (served from the catalog's view of that name)."""

    source: ast.FromSource
    binding: str
    kind: str = "table"
    columns: tuple[str, ...] = ()
    plan: Optional["SelectPlan"] = None
    #: Lower-cased column name -> position (a base table's is its
    #: schema's name index).
    index: Optional[dict[str, int]] = None

    def __post_init__(self) -> None:
        if self.index is None:
            self.index = {}
            for i, column in enumerate(self.columns):
                self.index.setdefault(column.lower(), i)

    def has_column(self, name: str) -> bool:
        return name.lower() in self.index

    def position(self, name: str) -> Optional[int]:
        return self.index.get(name.lower())


@dataclass
class ColumnRun:
    """Columns ``start:stop`` of the source bound as ``binding``: a
    ``*``, or adjacent plain references to adjacent columns of one
    source, planned as one select item whose data is a slice of that
    source's blocks."""

    binding: str
    start: int
    stop: int


@dataclass
class PlannedJoin:
    """How to attach one source to the accumulated left side.

    ``left_keys``/``right_keys`` are parallel column references; empty
    keys mean a cartesian product (only reasonable for tiny tables).
    ``null_safe`` flags (parallel to the keys) mark pairs written as
    ``a = b OR (a IS NULL AND b IS NULL)``, where NULL joins NULL.
    ``residual`` holds non-equi parts of an explicit ON condition.
    """

    kind: str                       # "inner" | "left"
    source: PlannedSource
    left_keys: list[ast.ColumnRef] = field(default_factory=list)
    right_keys: list[ast.ColumnRef] = field(default_factory=list)
    null_safe: list[bool] = field(default_factory=list)
    residual: Optional[ast.Expr] = None


@dataclass
class FromPlan:
    first: PlannedSource
    joins: list[PlannedJoin]
    residual_where: Optional[ast.Expr]


@dataclass
class SelectPlan:
    """Everything decided about one SELECT before it runs.

    ``matview`` set means the whole statement is answered from that
    materialized view and nothing else applies.  ``items`` is the
    select list as ``(output name, expression)`` -- a cell family as
    ``(its cells' names, family)``, and, in a projection, a ``*`` or a
    run of plain references to adjacent columns of one source as
    ``(their names, ColumnRun)``; ``mode`` is
    ``projection`` or ``aggregate``, whose ``grouping_sets`` holds the
    expanded sets, positions resolved: a plain GROUP BY is the one set
    of its keys, a global aggregate the set ``()`` (the Data Cube's
    generalization of GROUP BY).  DISTINCT / ORDER BY / LIMIT are read
    off ``select`` in that order.  ``bound`` is the binder's record of
    each select item (parallel to ``select.items``) and
    ``having_bound`` HAVING's (:mod:`repro.engine.binder`): the one
    walk of each, which the executor reads instead of walking the
    trees again.  ``windowed`` holds the positions in ``items`` whose
    expression calls a window function, and ``having_windowed`` says
    whether HAVING does.
    """

    select: ast.Select
    matview: Optional[object] = None
    from_plan: Optional[FromPlan] = None
    mode: str = "projection"
    items: list[tuple[str, ast.Expr]] = field(default_factory=list)
    grouping_sets: list[tuple[ast.Expr, ...]] = field(default_factory=list)
    bound: list[BoundExpr] = field(default_factory=list)
    having_bound: Optional[BoundExpr] = None
    windowed: set[int] = field(default_factory=set)
    having_windowed: bool = False

    @property
    def columns(self) -> tuple[str, ...]:
        if self.matview is not None:
            return tuple(self.matview.result.column_names())
        return tuple(itertools.chain.from_iterable(
            names if isinstance(item, (ast.CellFamily, ColumnRun))
            else (names,) for names, item in self.items))

    def sources(self) -> list[PlannedSource]:
        if self.from_plan is None:
            return []
        return [self.from_plan.first] \
            + [join.source for join in self.from_plan.joins]


def plan_select(select: ast.Select, catalog, use_views: bool = True
                ) -> SelectPlan:
    """Plan ``select`` against ``catalog`` without touching any row."""
    if use_views and catalog.matviews():
        from repro.views.rewrite import match_view
        mv = match_view(catalog, select)
        if mv is not None:
            return SelectPlan(select, matview=mv)
    bound = [bind(item if isinstance(item, ast.CellFamily) else item.expr)
             for item in select.items]
    having = bind(select.having) if select.having is not None else None
    plan = SelectPlan(select, mode=_mode(select, bound, having),
                      bound=bound, having_bound=having,
                      having_windowed=having is not None
                      and having.windowed)
    if select.from_ is not None:
        sources: dict[str, PlannedSource] = {}
        for source in select.from_.sources():
            planned = _classify(source, catalog, use_views)
            if planned.binding.lower() in sources:
                raise PlanningError(
                    f"duplicate table binding {source.binding!r}")
            sources[planned.binding.lower()] = planned
        plan.from_plan = plan_from(select.from_, select.where, sources)
    plan.items, plan.windowed = _select_items(select, plan)
    if plan.mode == "aggregate":
        plan.grouping_sets = groupingsets.expand_group_by(
            select.group_by, lambda e: _resolve_group_expr(e, select))
    return plan


def _mode(select: ast.Select, bound: list[BoundExpr],
          having: Optional[BoundExpr]) -> str:
    """The evaluation mode, read off what the items and HAVING call."""
    if any(item.extended for item in bound):
        raise PlanningError(
            "Vpct()/Hpct()/BY-extended aggregates are not "
            "executable directly; rewrite the query with "
            "repro.core first (this engine plays the role of "
            "the standard-SQL DBMS in the paper's architecture)")
    if ast.has_grouping_sets(select):
        if any(item.family is not None for item in bound):
            raise PlanningError("a cell family cannot be grouped by "
                                "CUBE/ROLLUP/GROUPING SETS")
        if any(item.windowed for item in bound):
            raise PlanningError(
                "window functions are not supported with "
                "CUBE/ROLLUP/GROUPING SETS")
        return "aggregate"
    if having is not None:
        bound = bound + [having]
    if any(item.grouping for item in bound):
        # Outside a lattice they get a typed error, not an unknown-
        # function failure.
        raise GroupingSetError(
            "grouping() and pct() require GROUP BY "
            "CUBE/ROLLUP/GROUPING SETS")
    if select.group_by or having is not None \
            or any(item.aggregate for item in bound):
        return "aggregate"
    if any(item.family is not None for item in bound):
        raise PlanningError("a cell family needs GROUP BY or an "
                            "aggregate")
    return "projection"


def _classify(source: ast.FromSource, catalog, use_views: bool
              ) -> PlannedSource:
    if not isinstance(source, ast.TableRef):
        plan = plan_select(source.select, catalog, use_views)
        return PlannedSource(source, source.alias, "derived",
                             plan.columns, plan)
    if catalog.has_matview(source.name):
        mv = catalog.matview(source.name)
        return PlannedSource(source, source.binding, "matview",
                             tuple(mv.result.column_names()))
    if catalog.has_view(source.name):
        plan = plan_select(catalog.view(source.name), catalog, use_views)
        return PlannedSource(source, source.binding, "view",
                             plan.columns, plan)
    return _base_table(source, catalog)


def _base_table(ref: ast.TableRef, catalog) -> PlannedSource:
    schema = catalog.table(ref.name).schema
    return PlannedSource(ref, ref.binding, "table", schema.names,
                         index=schema.index)


def plan_update_join(statement: ast.Update, catalog) -> FromPlan:
    """``UPDATE t ... FROM f WHERE ...`` is the left join of the target
    with the one FROM table on the WHERE clause's key equalities; what
    is left of WHERE lands on the join's ``residual``."""
    if len(statement.from_tables) != 1:
        raise PlanningError(
            "UPDATE ... FROM supports exactly one joined table")
    from_ref = statement.from_tables[0]
    sources = {ref.binding.lower(): _base_table(ref, catalog)
               for ref in (statement.table, from_ref)}
    plan = plan_from(
        ast.FromClause(statement.table, (ast.JoinStep("cross", from_ref),)),
        statement.where, sources)
    join = plan.joins[0]
    if not join.left_keys:
        raise PlanningError(
            "UPDATE ... FROM requires equality predicates joining "
            "the target and the FROM table")
    join.kind = "left"
    join.residual, plan.residual_where = plan.residual_where, None
    return plan


def output_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    return f"col{position + 1}"


def dedupe_names(names: list[str]) -> list[str]:
    if len(set(map(str.lower, names))) == len(names):
        return list(names)
    seen: dict[str, int] = {}
    out = []
    for name in names:
        key = name.lower()
        if key in seen:
            seen[key] += 1
            name = f"{name}_{seen[key]}"
        else:
            seen[key] = 0
        out.append(name)
    return out


def _select_items(select: ast.Select, plan: SelectPlan
                  ) -> tuple[list[tuple], set[int]]:
    """The select list as ``(output name, expression)`` -- a cell
    family as ``(its cells' names, family)``, a ``*`` or a run of
    plain column references as ``(their names, ColumnRun)`` -- and the
    positions of the items in it that call a window function.  A
    projection with no window function resolves its plain references
    to a source here, as the frame will: a reference only one source
    can own joins the run before it when it names the next column of
    the same source."""
    sources = plan.sources()
    named: list[tuple[list[str], Any]] = []
    windowed = set()
    runs = plan.mode == "projection" \
        and not any(bound.windowed for bound in plan.bound)
    by_binding = {source.binding.lower(): source for source in sources}
    position = 0   # among the items the families stand for
    for i, item in enumerate(select.items):
        if isinstance(item, ast.CellFamily):
            named.append(([f"col{position + j + 1}"
                           for j in range(len(item))], item))
            position += len(item)
            continue
        position += 1
        if not isinstance(item.expr, ast.Star):
            if plan.bound[i].windowed:
                windowed.add(len(named))
            name = output_name(item, position - 1)
            at = _owner_position(item.expr, sources, by_binding) \
                if runs else None
            if at is None:
                named.append(([name], item.expr))
                continue
            binding, column = at
            last = named[-1][1] if named else None
            if type(last) is ColumnRun and last.binding == binding \
                    and last.stop == column:
                named[-1][0].append(name)
                last.stop += 1
            else:
                named.append(([name], ColumnRun(binding, column,
                                                column + 1)))
            continue
        if plan.mode != "projection":
            raise PlanningError("'*' cannot appear in an aggregate "
                                "select list")
        if not sources:
            raise PlanningError("'*' requires a FROM clause")
        star = item.expr
        chosen = [s for s in sources if not star.table
                  or s.binding.lower() == star.table.lower()]
        if not chosen:
            raise PlanningError(f"unknown table {star.table!r} in "
                                f"'{star.table}.*'")
        named.extend((list(s.columns), ColumnRun(
            s.binding.lower(), 0, len(s.columns))) for s in chosen)
    flat = list(itertools.chain.from_iterable(
        names for names, _ in named))
    deduped = dedupe_names(flat)
    if deduped != flat:
        at = 0
        for names, _ in named:
            names[:] = deduped[at:at + len(names)]
            at += len(names)
    return ([(names, expr) if isinstance(expr, (ast.CellFamily, ColumnRun))
             else (names[0], expr) for names, expr in named], windowed)


def _owner_position(expr: ast.Expr, sources: list[PlannedSource],
                    by_binding: dict[str, PlannedSource]
                    ) -> Optional[tuple[str, int]]:
    """The lower-cased binding of the one source a plain column
    reference can resolve to, and the column's position in it; None
    for anything else."""
    if type(expr) is not ast.ColumnRef:
        return None
    if expr.table:
        binding = expr.table.lower()
        source = by_binding.get(binding)
        column = None if source is None else source.position(expr.name)
        return None if column is None else (binding, column)
    found = None
    for source in sources:
        column = source.position(expr.name)
        if column is not None:
            if found is not None:
                return None
            found = source.binding.lower(), column
    return found


def _resolve_group_expr(expr: ast.Expr, select: ast.Select) -> ast.Expr:
    """Positional GROUP BY resolution for one expression (also
    applied inside CUBE/ROLLUP/GROUPING SETS elements)."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        position = expr.value
        items = ast.expand_families(select).items
        if not 1 <= position <= len(items):
            raise PlanningError(
                f"GROUP BY position {position} is out of range")
        target = items[position - 1].expr
        if ast.contains_aggregate(target):
            raise PlanningError(
                f"GROUP BY position {position} refers to an "
                f"aggregate expression")
        return target
    return expr


def split_conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten a tree of ANDs into a list of conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def join_conjuncts(conjuncts: list[ast.Expr]) -> Optional[ast.Expr]:
    """Rebuild an AND tree (None for an empty list)."""
    result: Optional[ast.Expr] = None
    for conjunct in conjuncts:
        result = conjunct if result is None \
            else ast.BinaryOp("AND", result, conjunct)
    return result


def plan_from(from_clause: ast.FromClause, where: Optional[ast.Expr],
              sources: dict[str, PlannedSource]) -> FromPlan:
    """Plan the FROM clause over the classified ``sources`` (keyed by
    lower-cased binding)."""
    first = sources[from_clause.first.binding.lower()]
    joins: list[PlannedJoin] = []
    conjuncts = split_conjuncts(where)
    used = [False] * len(conjuncts)
    accumulated = [first.binding.lower()]

    for step in from_clause.joins:
        source = sources[step.source.binding.lower()]
        explicit = step.kind in ("inner", "left")
        pool = split_conjuncts(step.on) if explicit else conjuncts
        taken = [False] * len(pool) if explicit else used
        planned = PlannedJoin(step.kind if explicit else "inner", source)
        for i, conjunct in enumerate(pool):
            pair = None if taken[i] else _equi_key_pair(
                conjunct, accumulated, source.binding.lower(), sources)
            if pair is not None:
                planned.left_keys.append(pair[0])
                planned.right_keys.append(pair[1])
                planned.null_safe.append(pair[2])
                taken[i] = True
        if explicit:
            planned.residual = join_conjuncts(
                [c for c, t in zip(pool, taken) if not t])
            if step.kind == "left" and planned.residual is not None:
                raise PlanningError(
                    "LEFT OUTER JOIN supports only conjunctions of "
                    "column equalities in ON")
            if not planned.left_keys:
                raise PlanningError("JOIN ... ON requires at least one "
                                    "equality between the two sides")
        joins.append(planned)
        accumulated.append(source.binding.lower())

    leftovers = [c for c, u in zip(conjuncts, used) if not u]
    return FromPlan(first, joins, join_conjuncts(leftovers))


def null_safe_equality(expr: ast.Expr
                       ) -> Optional[tuple[ast.ColumnRef, ast.ColumnRef]]:
    """The ``(a, b)`` of ``a = b OR (a IS NULL AND b IS NULL)`` (either
    disjunct order), or None when ``expr`` is not that pattern."""
    if not (isinstance(expr, ast.BinaryOp) and expr.op == "OR"):
        return None
    eq, both_null = expr.left, expr.right
    if not (isinstance(eq, ast.BinaryOp) and eq.op == "="):
        eq, both_null = both_null, eq
    if not (isinstance(eq, ast.BinaryOp) and eq.op == "="
            and isinstance(eq.left, ast.ColumnRef)
            and isinstance(eq.right, ast.ColumnRef)):
        return None
    if not (isinstance(both_null, ast.BinaryOp)
            and both_null.op == "AND"):
        return None
    checks = (both_null.left, both_null.right)
    if not all(isinstance(c, ast.IsNull) and not c.negated
               and isinstance(c.operand, ast.ColumnRef)
               for c in checks):
        return None
    checked = {c.operand.key() for c in checks}
    if checked != {eq.left.key(), eq.right.key()}:
        return None
    return eq.left, eq.right


def _equi_key_pair(conjunct: ast.Expr, accumulated: list[str],
                   new_binding: str, sources: dict[str, PlannedSource]
                   ) -> Optional[tuple[ast.ColumnRef, ast.ColumnRef,
                                       bool]]:
    """``(left_key, right_key, null_safe)`` when ``conjunct`` equates a
    column of the accumulated side with a column of the new source
    (plain ``=`` or the null-safe OR form)."""
    null_safe = False
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ast.ColumnRef)
                and isinstance(right, ast.ColumnRef)):
            return None
    else:
        pair = null_safe_equality(conjunct)
        if pair is None:
            return None
        left, right = pair
        null_safe = True
    candidates = accumulated + [new_binding]
    left_owner = _owner(left, candidates, sources)
    right_owner = _owner(right, candidates, sources)
    if left_owner is None or right_owner is None:
        return None
    if left_owner in accumulated and right_owner == new_binding:
        return left, right, null_safe
    if right_owner in accumulated and left_owner == new_binding:
        return right, left, null_safe
    return None


def _owner(ref: ast.ColumnRef, candidates: list[str],
           sources: dict[str, PlannedSource]) -> Optional[str]:
    """The candidate binding that owns ``ref``; None when no candidate
    or more than one has the column."""
    if ref.table:
        candidates = [b for b in candidates if b == ref.table.lower()]
    owners = [b for b in candidates if sources[b].has_column(ref.name)]
    return owners[0] if len(owners) == 1 else None
