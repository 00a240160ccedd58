"""Materialized-view definitions and per-group aggregate state.

A materialized percentage view keeps, for each *group level* it needs,
a base-row-aligned group-id array plus per-slot columns: the key
values, the membership counts and one typed column per partial
aggregate.  A slot is live while its count is above 0.  Slots are
append-only: a group that loses its last member row is retracted (its
count reaches 0) but its slot number is never reused, so stale
references cannot alias a new group.

Levels per view kind:

* **plain** group-by -- one level keyed by the GROUP BY columns, one
  measure per aggregate select item.
* **vertical** (``Vpct``) -- one fine level keyed by the full GROUP BY;
  per term either the fine ``sum`` (Vpct numerators; coarse
  denominators are re-accumulated from the fine sums at derive time,
  replicating the engine's fj lattice) or the plain aggregate.
* **horizontal** (``Hpct``/``Hagg``) -- a coarse level keyed by the
  GROUP BY (row denominators and plain terms) plus one fine level per
  distinct ``BY`` column set (cell numerators; slot liveness doubles
  as the "combination has rows" predicate of the paper's CASE cells).

When two keys are equal, and in which order groups stand, is decided
by the engine's grouping core (:func:`repro.engine.groupby.group_rows`)
alone: NULLs group together and sort first, NaNs group together and
sort last, ``-0.0`` equals ``0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core import model
from repro.core import validate as validate_mod
from repro.core.layout import Layout, layout_of
from repro.engine.column import ColumnData
from repro.engine.types import NULL_FILLERS, SQLType
from repro.errors import MaterializedViewError
from repro.sql import ast
from repro.sql.formatter import format_select

PLAIN = "plain"
VERTICAL = "vertical"
HORIZONTAL = "horizontal"


# ----------------------------------------------------------------------
# State layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasureSpec:
    """One partial aggregate maintained at a level."""

    func: str                       # count/sum/avg/min/max/var/stdev
    argument: Optional[ast.Expr]    # None => count(*)
    distinct: bool = False


class GroupLevel:
    """Per-group state for one key set, in columns indexed by slot.

    ``group_ids`` is aligned with the base table's rows; ``-1`` marks
    rows failing the view's WHERE clause.  ``keys`` holds one column
    per key column, ``counts`` the member rows of each slot (int64)
    and ``values`` one typed column per measure.  Maintenance replaces
    these arrays wholesale and never writes into one, so a clone
    shares them.
    """

    __slots__ = ("columns", "measures", "group_ids", "keys", "counts",
                 "values")

    def __init__(self, columns: tuple[str, ...],
                 measures: tuple[MeasureSpec, ...],
                 keys: list[ColumnData], values: list[ColumnData]):
        self.columns = tuple(columns)
        self.measures = tuple(measures)
        self.group_ids = np.empty(0, dtype=np.int64)
        self.keys = list(keys)
        self.counts = np.empty(0, dtype=np.int64)
        self.values = list(values)

    @property
    def n_slots(self) -> int:
        return len(self.counts)

    def live(self) -> np.ndarray:
        """The live slots, ascending."""
        return np.flatnonzero(self.counts > 0)

    def grow(self, keys: list[ColumnData]) -> np.ndarray:
        """Append one slot per row of ``keys``, with count 0 and NULL
        measures; returns the new slot numbers."""
        first, n = self.n_slots, len(keys[0])
        self.keys = [ColumnData.concat([old, _filled(new)])
                     for old, new in zip(self.keys, keys)]
        self.counts = np.concatenate(
            [self.counts, np.zeros(n, dtype=np.int64)])
        self.values = [ColumnData.concat(
                           [old, ColumnData.all_null(old.sql_type, n)])
                       for old in self.values]
        return np.arange(first, first + n, dtype=np.int64)

    def clone(self) -> "GroupLevel":
        """A maintenance working copy sharing every array."""
        twin = GroupLevel(self.columns, self.measures, self.keys,
                          self.values)
        twin.group_ids = self.group_ids
        twin.counts = self.counts
        return twin


def _filled(column: ColumnData) -> ColumnData:
    """``column`` with its type's filler under every NULL, as a column
    built from Python values has it."""
    if not column.nulls.any():
        return column
    values = column.values.copy()
    values[column.nulls] = NULL_FILLERS[column.sql_type]
    return ColumnData(column.sql_type, values, column.nulls)


def patched(column: ColumnData, at: np.ndarray,
            small: ColumnData) -> ColumnData:
    """A copy of ``column`` with ``small``'s rows written at ``at``."""
    values = column.values.copy()
    nulls = column.nulls.copy()
    values[at] = small.values
    nulls[at] = small.nulls
    return ColumnData(column.sql_type, values, nulls)


@dataclass(frozen=True)
class Denominators:
    """One Vpct term's denominator groups, over the result rows.

    ``rows`` maps each result row to its denominator group (groups in
    sorted-key order, the fj table's row order).  ``addends`` maps
    each addend of the group sums to its group: the result rows when
    ``source`` is None (the fine sums), else the groups of the
    ``source`` term's denominators -- the engine's fj lattice.
    """

    rows: np.ndarray
    n_groups: int
    source: Optional[int]
    addends: np.ndarray


@dataclass(frozen=True)
class Combinations:
    """One fine level's BY combinations, over its live slots.

    ``fine`` are the live fine slots, ``coarse`` the coarse slot
    holding each one's GROUP BY key and ``ids`` each one's combination,
    numbered in sorted BY order -- the order DISCOVER's ``SELECT
    DISTINCT ... ORDER BY`` gives.  ``values`` has one BY tuple per
    combination, taken from its lowest live slot, for the column names.
    """

    fine: np.ndarray
    coarse: np.ndarray
    ids: np.ndarray
    values: list[tuple]


class ViewState:
    """All levels of one view plus derive caches.

    The caches are what the last full derive worked out from the
    group set: the result table, the row order (``order``: live slots
    by row; ``row_of_slot``: slot -> row, ``-1`` for a slot with no
    row), for vertical views each Vpct term's ``denominators`` and for
    horizontal views each fine level's :class:`Combinations`.  Fine
    sums are read off the primary level through ``order``, not cached.
    The caches stay valid until a group is born or retracted, which is
    exactly when :func:`~repro.views.rewrite.derive_delta` falls back
    to a full derive; they are replaced -- never mutated -- alongside
    the state.  ``rederived`` counts the result rows the last derive
    wrote.
    """

    __slots__ = ("levels", "result", "order", "row_of_slot",
                 "denominators", "combos", "rederived")

    def __init__(self, levels: list[GroupLevel]):
        self.levels = levels
        self.result = None           # Table of the last derive
        self.order: Optional[np.ndarray] = None
        self.row_of_slot: Optional[np.ndarray] = None
        self.denominators: dict[int, Denominators] = {}
        self.combos: list[Combinations] = []
        self.rederived = 0

    def clone(self) -> "ViewState":
        twin = ViewState([level.clone() for level in self.levels])
        twin.result = self.result
        twin.order = self.order
        twin.row_of_slot = self.row_of_slot
        twin.denominators = self.denominators
        twin.combos = self.combos
        return twin


@dataclass
class DeltaInfo:
    """What one write touched: the primary level's touched live slots
    (ascending), and whether no level had a group born or retracted."""

    touched: np.ndarray
    stable: bool


# ----------------------------------------------------------------------
# Definition analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HTermPlan:
    """Where one term of a horizontal view keeps its partial
    aggregates: a plain or Hpct term at a coarse measure (the
    aggregate, or the row denominator), an Hpct or Hagg term at a
    measure of its BY set's fine level."""

    coarse_measure: Optional[int] = None
    level: Optional[int] = None            # fine level index in state
    fine_measure: Optional[int] = None


@dataclass(frozen=True)
class ViewDefinition:
    """Everything data-independent about one materialized view."""

    name: str
    select: ast.Select
    sql: str                        # canonical format_select text
    kind: str                       # PLAIN / VERTICAL / HORIZONTAL
    base_table: str                 # lower-case catalog key
    binding: str                    # alias or table name for evaluation
    group_by: tuple[str, ...]
    key_types: tuple[SQLType, ...]
    where: Optional[ast.Expr] = None
    # plain views: select items as ("key", key index) / ("agg",
    # measure index), plus precomputed deduped output names.
    plain_items: tuple[tuple[str, int], ...] = ()
    plain_names: tuple[str, ...] = ()
    # percentage views: the query's result layout (term names, types,
    # Vpct totals, the fj lattice, the BY sets), as the generators
    # read it; horizontal views also place each term's measures.
    layout: Optional[Layout] = field(default=None, compare=False)
    hplans: tuple[HTermPlan, ...] = ()

    def level_specs(self) -> list[tuple[tuple[str, ...],
                                        tuple[MeasureSpec, ...]]]:
        """(columns, measures) per level; index 0 is the primary."""
        if self.kind == PLAIN:
            return [(self.group_by, tuple(_plain_measures(self.select)))]
        terms = [t.term for t in self.layout.terms]
        # The primary level holds Vpct numerators, Hpct denominators
        # and plain terms; each BY set's fine level its cells'
        # numerators.
        return [(self.group_by, tuple(_measure(term) for term in terms
                                      if term.kind != model.HAGG)),
                *((self.group_by + by,
                   tuple(_measure(term) for term in terms
                         if term.by_columns == by))
                  for by in self.layout.by_sets)]


def _measure(term: model.AggregateTerm) -> MeasureSpec:
    """A percentage term's numerator or denominator sum, or the term's
    own aggregate."""
    if term.kind in (model.VPCT, model.HPCT):
        return MeasureSpec("sum", term.argument)
    return MeasureSpec(term.func, term.argument, term.distinct)


def _plain_measures(select: ast.Select) -> list[MeasureSpec]:
    measures = []
    for item in select.items:
        if isinstance(item.expr, ast.FuncCall):
            call = item.expr
            if call.args and isinstance(call.args[0], ast.Star):
                measures.append(MeasureSpec("count", None))
            else:
                measures.append(MeasureSpec(
                    call.name, call.args[0], call.distinct))
    return measures


def _reject(condition: bool, why: str) -> None:
    if condition:
        raise MaterializedViewError(
            f"unsupported materialized-view definition: {why}")


def analyze_view(catalog, name: str, select: ast.Select
                 ) -> ViewDefinition:
    """Classify and pre-plan a CREATE MATERIALIZED VIEW definition.

    Raises :class:`~repro.errors.MaterializedViewError` for anything
    the delta-maintenance engine cannot keep exactly equal to a
    from-scratch recompute (joins, subqueries, HAVING/ORDER BY/LIMIT/
    DISTINCT, expression group keys, empty GROUP BY).
    """
    _reject(select.from_ is None, "a FROM clause is required")
    _reject(bool(select.from_.joins), "joins are not supported")
    _reject(not isinstance(select.from_.first, ast.TableRef),
            "subquery sources are not supported")
    ref = select.from_.first
    base = catalog.table(ref.name)   # raises CatalogError if missing
    _reject(catalog.has_view(ref.name),
            "the base must be a table, not a view")
    _reject(ast.has_grouping_sets(select),
            "CUBE/ROLLUP/GROUPING SETS cannot be incrementally "
            "maintained (grouping-set lattices are computed per query "
            "by the shared-scan operator)")
    _reject(any(not isinstance(item.expr, ast.Star)
                and ast.contains_grouping_func(item.expr)
                for item in select.items),
            "grouping()/pct() are not supported")
    _reject(select.distinct, "DISTINCT is not supported")
    _reject(select.having is not None, "HAVING is not supported")
    _reject(bool(select.order_by), "ORDER BY is not supported")
    _reject(select.limit is not None, "LIMIT is not supported")
    _reject(not select.group_by, "a non-empty GROUP BY is required")
    if select.where is not None:
        _reject(ast.contains_aggregate(select.where),
                "aggregates in WHERE are not supported")

    sql = format_select(select)
    is_percentage = any(
        isinstance(item.expr, ast.FuncCall)
        and (item.expr.name in ("vpct", "hpct") or item.expr.by_columns)
        for item in select.items)
    if is_percentage:
        return _analyze_percentage(catalog, name, select, sql, ref,
                                   base)
    return _analyze_plain(catalog, name, select, sql, ref, base)


def _key_types(base, group_by) -> tuple[SQLType, ...]:
    types = []
    for column in group_by:
        _reject(not base.schema.has_column(column),
                f"no column {column!r} in table {base.name!r}")
        types.append(base.schema.column_type(column))
    return tuple(types)


def _analyze_percentage(catalog, name, select, sql, ref, base
                        ) -> ViewDefinition:
    query = model.build_percentage_query(select, sql)
    validate_mod.validate(query)
    _reject(query.source_select is not None,
            "multi-table percentage sources are not supported")
    _reject(ref.alias is not None,
            "aliased percentage sources are not supported")
    group_by = tuple(query.group_by)
    key_types = _key_types(base, group_by)
    layout = layout_of(catalog, query)
    kind = VERTICAL if query.has_vertical_pct else HORIZONTAL
    return ViewDefinition(
        name=name, select=select, sql=sql, kind=kind,
        base_table=query.table.lower(), binding=ref.binding,
        group_by=group_by, key_types=key_types, where=query.where,
        layout=layout,
        hplans=_place_measures(layout) if kind == HORIZONTAL else ())


def _place_measures(layout: Layout) -> tuple[HTermPlan, ...]:
    """Each term's measures in :meth:`ViewDefinition.level_specs`."""
    coarse = 0
    fine = [0] * len(layout.by_sets)
    plans = []
    for t in layout.terms:
        coarse_measure = level = fine_measure = None
        if t.kind != model.HAGG:
            coarse_measure, coarse = coarse, coarse + 1
        if t.term.is_horizontal:
            level = layout.by_sets.index(t.term.by_columns) + 1
            fine_measure = fine[level - 1]
            fine[level - 1] += 1
        plans.append(HTermPlan(coarse_measure, level, fine_measure))
    return tuple(plans)


def _analyze_plain(catalog, name, select, sql, ref, base
                   ) -> ViewDefinition:
    group_by: list[str] = []
    for expr in select.group_by:
        _reject(not isinstance(expr, ast.ColumnRef),
                "GROUP BY must list plain columns")
        group_by.append(expr.name.lower())
    group_set = set(group_by)
    items: list[tuple[str, int]] = []
    measure = 0
    for item in select.items:
        expr = item.expr
        if isinstance(expr, ast.ColumnRef):
            _reject(expr.name.lower() not in group_set,
                    f"select column {expr.name!r} is not grouped")
            items.append(("key", group_by.index(expr.name.lower())))
        elif isinstance(expr, ast.FuncCall):
            _reject(expr.name not in ast.AGGREGATE_NAMES,
                    f"{expr.name}() is not a plain aggregate")
            _reject(bool(expr.by_columns) or expr.default is not None
                    or expr.over is not None,
                    "extended aggregate syntax is not supported")
            if expr.args and isinstance(expr.args[0], ast.Star):
                _reject(expr.name != "count",
                        f"{expr.name}(*) is not supported")
            else:
                _reject(len(expr.args) != 1,
                        f"{expr.name}() needs exactly one argument")
                _reject(ast.contains_aggregate(expr.args[0]),
                        "nested aggregates are not supported")
            _reject(expr.distinct and expr.name != "count",
                    "DISTINCT is only supported with count")
            items.append(("agg", measure))
            measure += 1
        else:
            _reject(True, "select items must be group columns or "
                          "aggregate calls")
    key_types = _key_types(base, tuple(group_by))
    # Output names follow the planner's rule for any SELECT.
    from repro.engine.planner import dedupe_names, output_name
    names = tuple(dedupe_names([output_name(item, i) for i, item
                                in enumerate(select.items)]))
    return ViewDefinition(
        name=name, select=select, sql=sql, kind=PLAIN,
        base_table=ref.name.lower(), binding=ref.binding,
        group_by=tuple(group_by), key_types=key_types,
        where=select.where, plain_items=tuple(items),
        plain_names=names)


# ----------------------------------------------------------------------
# The catalog object
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MaterializedView:
    """One published materialized view.

    Immutable: maintenance builds a *new* MaterializedView around
    cloned state and publishes it atomically with the base table, so a
    catalog savepoint rollback restores a (table, view) pair whose
    ``base_version`` match holds by construction.
    """

    definition: ViewDefinition
    state: ViewState
    result: "Table"                 # noqa: F821 - engine Table
    base_version: int

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def key(self) -> str:
        return self.definition.name.lower()

    def fresh(self, base_table) -> bool:
        return self.base_version == base_table.version
