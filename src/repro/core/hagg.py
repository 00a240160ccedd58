"""The SPJ strategy for horizontal aggregations (companion paper,
Section 3.4).

The SPJ ("select-project-join") strategy evaluates a horizontal
aggregation using relational operators only:

1. optionally pre-aggregate into ``FV`` (grouped by
   ``D1..Dj + BY columns``) -- the *indirect* sub-strategy;
2. build ``F0``, the key table: every existing ``D1..Dj`` combination;
3. build one projected table ``F_I`` per BY-combination, each holding
   that combination's aggregate per group;
4. assemble ``FH`` with N left outer joins of ``F0`` against every
   ``F_I`` (missing combinations surface as NULL, replaced by DEFAULT
   when given).

The paper writes the chained joins as ``F1.D1 = F2.D1 AND ...``; we
anchor every ON condition at ``F0`` instead, which is equivalent when
all matches exist and correct when they do not (a NULL key from an
earlier unmatched join can never match the next table).  This deviation
is recorded in DESIGN.md.

The strategy exists to reproduce the companion paper's Table 3, where
SPJ loses to CASE by one to two orders of magnitude.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.api.database import Database
from repro.core import common, model, plan as plan_mod
from repro.core.common import ZERO, call, cols, conjunction
from repro.core.horizontal import (_distributive, _union_by_columns,
                                   discover_combinations)
from repro.core.layout import Layout, layout_of
from repro.core.naming import NamingPolicy
from repro.core.partitioning import (assemble_partitions,
                                     partition_tables,
                                     split_result_columns)
from repro.core.plan import GeneratedPlan
from repro.engine.types import SQLType
from repro.errors import PercentageQueryError
from repro.sql import ast


@dataclass(frozen=True)
class HorizontalAggStrategy:
    """SPJ evaluation knobs (companion paper Table 3 columns).

    ``source="F"`` aggregates every ``F_I`` straight from ``F``;
    ``source="FV"`` pre-aggregates once and projects from ``FV``.
    """

    source: str = "F"
    naming: NamingPolicy = field(default_factory=NamingPolicy)

    def __post_init__(self) -> None:
        if self.source not in ("F", "FV"):
            raise ValueError("source must be 'F' or 'FV'")

    def describe(self) -> str:
        return f"horizontal SPJ from {self.source}"


def generate_spj(db: Database, query: model.PercentageQuery,
                 strategy: Optional[HorizontalAggStrategy] = None
                 ) -> GeneratedPlan:
    """Generate the SPJ statement sequence for a horizontal
    aggregation query (Hagg terms and plain vertical terms; Hpct is
    rejected -- the original paper evaluates percentages with the CASE
    forms only)."""
    strategy = strategy or HorizontalAggStrategy()
    if not query.horizontal_terms():
        raise PercentageQueryError("the query has no horizontal term")
    if any(t.kind == model.HPCT for t in query.terms):
        raise PercentageQueryError(
            "the SPJ strategy applies to generalized horizontal "
            "aggregations (sum/count/avg/min/max BY); use the CASE "
            "strategies for Hpct()")
    for term in query.terms:
        if term.distinct and strategy.source == "FV":
            raise PercentageQueryError(
                "count(DISTINCT ...) is not distributive; SPJ from FV "
                "cannot evaluate it")
        if term.func in ("var", "stdev") and strategy.source == "FV":
            raise PercentageQueryError(
                f"{term.func}() is not distributive; SPJ from FV "
                f"cannot evaluate it")

    prefix = plan_mod.fresh_prefix("sp")
    result = GeneratedPlan(strategy=strategy,
                           description=strategy.describe())

    from repro.core.vertical import (_materialize_if_needed,
                                     replace_table)
    table = _materialize_if_needed(db, query, prefix, result)
    fact = replace_table(query, table)
    layout = layout_of(db.catalog, fact)

    combos = discover_combinations(db, fact, result)
    base_columns: dict[int, dict[str, str]] = {}
    if strategy.source == "FV":
        source = _generate_plain_fv(db, fact, base_columns, prefix,
                                    result)
    else:
        source = fact.table

    f0 = _generate_f0(db, fact, source, prefix, result)
    projected = _generate_projected_tables(db, fact, layout, combos,
                                           source, base_columns,
                                           strategy, prefix, result)
    _assemble(db, fact, f0, projected, prefix, result)
    return result


# ----------------------------------------------------------------------
@dataclass
class _Projected:
    """One per-combination table F_I (or a plain-term table)."""

    table: str
    column: str          # output column name
    sql_type: SQLType
    default: Optional[object]


def _generate_plain_fv(db: Database, query: model.PercentageQuery,
                       base_columns: dict[int, dict[str, str]],
                       prefix: str, result: GeneratedPlan) -> str:
    """The indirect sub-strategy's FV: a plain vertical aggregation at
    the D1..Dj + allBY level, reusing the CASE module's layout."""
    from repro.core.horizontal import _generate_fv, HorizontalStrategy

    all_by = _union_by_columns(query)
    fv_group = tuple(query.group_by) + all_by
    return _generate_fv(db, query, all_by, fv_group, base_columns,
                        HorizontalStrategy(source="FV"), prefix, result)


#: F0's key when the query has no GROUP BY.
_CONSTANT_KEY = (ast.ColumnSpec(("_k",), "INT"),)


def _generate_f0(db: Database, query: model.PercentageQuery,
                 source: str, prefix: str,
                 result: GeneratedPlan) -> str:
    """F0 defines the result rows: every existing D1..Dj combination."""
    f0 = plan_mod.temp_name(prefix, "f0", db.catalog.max_name_length)
    if not query.group_by:
        # Rule (1) of the companion paper: group by a constant so code
        # generation always has a key ("rows can be grouped by a
        # constant value, e.g. D1 = 0").
        result.create_temp(f0, _CONSTANT_KEY, ("_k",))
        result.add(ast.InsertValues(f0, ((ZERO,),)),
                   plan_mod.SPJ_PROJECT)
        return f0
    defs = common.typed_columns(db, query.table, query.group_by)
    result.create_temp(f0, defs, query.group_by)
    result.add(ast.InsertSelect(f0, common.select(
        cols(query.group_by), common.tables(source),
        query.where if source == query.table else None, distinct=True)),
        plan_mod.SPJ_PROJECT)
    return f0


def _generate_projected_tables(db: Database,
                               query: model.PercentageQuery,
                               layout: Layout,
                               combos: dict[int, list[tuple]],
                               source: str,
                               base_columns: dict[int, dict[str, str]],
                               strategy: HorizontalAggStrategy,
                               prefix: str, result: GeneratedPlan
                               ) -> list[_Projected]:
    """One aggregate table per (term, BY-combination), plus one table
    per plain vertical term."""
    where_base = query.where if source == query.table else None
    filters = [] if where_base is None else [where_base]
    names = layout.names(combos, strategy.naming)

    projected: list[_Projected] = []
    for t, term_names in zip(layout.terms, names):
        term = t.term
        aggregate = _aggregate(term, base_columns, strategy.source)
        if term.is_horizontal:
            refs = cols(term.by_columns)
            conditions = [
                conjunction([ast.cell_match(refs, values), *filters])
                for values in combos[term.position]]
            default = term.default
        else:
            conditions, default = [where_base], None
        for name, condition in zip(term_names, conditions):
            table = plan_mod.temp_name(prefix, f"p{len(projected) + 1}",
                                       db.catalog.max_name_length)
            _emit_projection(db, query, table, name, t.sql_type,
                             aggregate, condition, source, result)
            projected.append(_Projected(table, name, t.sql_type,
                                        default))
    return projected


def _aggregate(term: model.AggregateTerm,
               base_columns: dict[int, dict[str, str]],
               source: str) -> ast.Expr:
    if source == "F":
        if term.argument is None:
            return call("count", common.STAR)
        return call(term.func, term.argument, distinct=term.distinct)
    # From FV: distributive re-aggregation of the base columns.
    return _distributive(term, base_columns[term.position], match=None)


def _emit_projection(db: Database, query: model.PercentageQuery,
                     table: str, column: str, sql_type: SQLType,
                     aggregate: ast.Expr, condition: Optional[ast.Expr],
                     source: str, result: GeneratedPlan) -> None:
    """``F_I``: the keys and one aggregate column, keyed like F0."""
    keys = cols(query.group_by)
    if query.group_by:
        key_defs = common.typed_columns(db, query.table, query.group_by)
        key_names, key_select = query.group_by, keys
    else:
        key_defs, key_names, key_select = _CONSTANT_KEY, ("_k",), (ZERO,)
    defs = (*key_defs, ast.ColumnSpec((column,),
                                      common.column_type_name(sql_type)))
    result.create_temp(table, defs, key_names)
    result.add(ast.InsertSelect(table, common.select(
        [*key_select, aggregate], common.tables(source), condition,
        keys)), plan_mod.SPJ_PROJECT)


def _assemble(db: Database, query: model.PercentageQuery, f0: str,
              projected: list[_Projected], prefix: str,
              result: GeneratedPlan) -> None:
    """FH = F0 left-outer-joined with every projected table."""
    keys = query.group_by or ("_k",)
    key_defs = common.typed_columns(db, query.table, query.group_by) \
        if query.group_by else _CONSTANT_KEY

    result_columns = []
    for p in projected:
        select: ast.Expr = ast.ColumnRef(p.column, p.table)
        if p.default is not None:
            select = call("coalesce", select, common.literal(p.default))
        result_columns.append((p, select))

    partitions = split_result_columns(
        n_keys=len(keys), columns=result_columns,
        max_columns=db.catalog.max_columns)

    tables = partition_tables(prefix, len(partitions),
                              db.catalog.max_name_length)
    for fh, chunk in zip(tables, partitions):
        defs = (*key_defs, *(ast.ColumnSpec(
            tuple(p.column for p, _ in run),
            common.column_type_name(sql_type))
            for sql_type, run in itertools.groupby(
                chunk, key=lambda pair: pair[0].sql_type)))
        result.create_temp(fh, defs, keys)
        selects = [*cols(keys, f0), *(select for _, select in chunk)]
        # Null-safe ON: a NULL grouping key in F0 must still find its
        # per-combination aggregate row.
        joins = tuple(
            ast.JoinStep("left", ast.TableRef(p.table), conjunction(
                common.null_safe_equalities(f0, p.table, keys)))
            for p, _ in chunk)
        result.add(ast.InsertSelect(fh, common.select(
            selects, ast.FromClause(ast.TableRef(f0), joins))),
            plan_mod.ASSEMBLE)

    assemble_partitions(result, tables,
                        [[p.column for p, _ in chunk]
                         for chunk in partitions], keys,
                        stand_in=not query.group_by)
