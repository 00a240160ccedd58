"""Code generation for horizontal aggregations with the CASE strategy
(Section 3.2 of the paper; "CASE strategy" of the companion paper).

Handles, in one generated statement set, any mix of

* ``Hpct(A BY ...)`` terms -- percentage columns adding up to 100 % per
  row (missing cells are 0 %, as in the paper's Table 3);
* generalized ``Hagg`` terms -- ``sum/count/avg/min/max (A BY ...)``
  with missing cells NULL unless a ``DEFAULT`` is given (companion
  paper Section 3.4);
* plain vertical aggregates grouped by the same ``D1..Dj``.

Two sub-strategies are provided:

* **direct** (``source="F"``): one scan of ``F``; each result column is
  an aggregate over a CASE expression, and each Hpct column divides by
  ``sum(A)`` with a zero guard;
* **indirect** (``source="FV"``): first materialize the vertical
  aggregation ``FV`` at the ``D1..Dj + (all BY columns)`` level -- for
  Hpct terms this *is* a vertical percentage table, generated by
  composing :mod:`repro.core.vertical` -- then transpose ``FV``.

The BY-combination discovery ("there must be a feedback process to
produce the table definition") runs against the database at generation
time; the discovery SELECTs are recorded as DISCOVER steps that the
runner does not re-execute.

A term's result columns differ only in their combination's match, so
the transpose holds them as one :class:`~repro.sql.ast.CellFamily` --
one template, the BY columns, the discovered values -- which prints as
the N CASE items and which the engine evaluates as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.api.database import Database
from repro.core import common, model, plan as plan_mod
from repro.core.common import ONE, ZERO, call, case, cols
from repro.core.naming import ColumnNamer, NamingPolicy
from repro.core.partitioning import split_result_columns
from repro.core.plan import GeneratedPlan
from repro.core.vertical import VerticalStrategy, generate_vertical
from repro.errors import PercentageQueryError
from repro.sql import ast


@dataclass(frozen=True)
class HorizontalStrategy:
    """Evaluation knobs for horizontal queries (Table 5 columns).

    ``source="F"`` is the direct CASE strategy, ``source="FV"`` the
    indirect one; ``vertical`` configures the FV step of the indirect
    strategy (Table 5 used the best vertical strategy for it).
    """

    source: str = "F"
    vertical: VerticalStrategy = field(default_factory=VerticalStrategy)
    naming: NamingPolicy = field(default_factory=NamingPolicy)

    def __post_init__(self) -> None:
        if self.source not in ("F", "FV"):
            raise ValueError("source must be 'F' or 'FV'")

    def describe(self) -> str:
        return f"horizontal CASE from {self.source}"


@dataclass
class _ResultColumns:
    """A run of FH's non-key output columns and what produces them:
    one aggregate expression, or the cells of one Hpct/Hagg term as an
    :class:`~repro.sql.ast.CellFamily` (one name per cell)."""

    names: list[str]
    type_name: str
    select: Union[ast.Expr, ast.CellFamily]

    def cut(self, start: int, stop: int) -> "_ResultColumns":
        """Columns ``start:stop`` of the run."""
        select = self.select
        if isinstance(select, ast.CellFamily):
            select = ast.CellFamily(select.template, select.by,
                                    select.values[start:stop])
        return _ResultColumns(self.names[start:stop], self.type_name,
                              select)


def generate_horizontal(db: Database, query: model.PercentageQuery,
                        strategy: Optional[HorizontalStrategy] = None
                        ) -> GeneratedPlan:
    """Generate the CASE-strategy statement sequence for a horizontal
    percentage/aggregation query."""
    strategy = strategy or HorizontalStrategy()
    if not query.horizontal_terms():
        raise PercentageQueryError("the query has no horizontal term")

    prefix = plan_mod.fresh_prefix("hp")
    result = GeneratedPlan(strategy=strategy,
                           description=strategy.describe())

    from repro.core.vertical import (_materialize_if_needed,
                                     replace_table)
    table = _materialize_if_needed(db, query, prefix, result)
    fact = replace_table(query, table)

    combos = discover_combinations(db, fact, result)
    if strategy.source == "FV":
        columns, source, group_keys = _indirect_columns(
            db, fact, combos, strategy, prefix, result)
    else:
        columns, source, group_keys = _direct_columns(db, fact, combos,
                                                      strategy)

    _emit_transpose(db, fact, columns, source, group_keys, prefix,
                    result, where=fact.where
                    if strategy.source == "F" else None,
                    type_source=fact.table)
    return result


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def discover_combinations(db: Database, query: model.PercentageQuery,
                          result: GeneratedPlan
                          ) -> dict[int, list[tuple]]:
    """Run ``SELECT DISTINCT Dj+1, ..., Dk FROM F`` for each horizontal
    term, returning the value combinations that define result columns.

    The rows come back sorted so column order is deterministic.  A NaN
    value is refused: GROUP BY puts every NaN in one group, but no cell
    condition ``D = NaN`` can ever match it.
    """
    combos: dict[int, list[tuple]] = {}
    seen: dict[tuple[str, ...], list[tuple]] = {}
    for term in query.horizontal_terms():
        key = term.by_columns
        if key not in seen:
            refs = cols(key)
            statement = common.select(refs, common.tables(query.table),
                                      query.where, order_by=refs,
                                      distinct=True)
            result.add(statement, plan_mod.DISCOVER)
            rows = common.feedback(db, statement).to_rows()
            for column, values in zip(key, zip(*rows)):
                if any(isinstance(v, float) and math.isnan(v)
                       for v in values):
                    raise PercentageQueryError(
                        f"BY column {column} holds NaN, which no "
                        f"result column can match")
            seen[key] = rows
        combos[term.position] = seen[key]
    if not query.group_by and not query.plain_terms() \
            and not any(combos.values()):
        raise PercentageQueryError(
            "no BY combinations and no GROUP BY: the result would "
            "have no columns")
    result.discovered = combos
    return combos


# ----------------------------------------------------------------------
# Column builders
# ----------------------------------------------------------------------
def cell_names(term: model.AggregateTerm, combos: list[tuple],
               naming: NamingPolicy, max_length: int, used: set[str],
               label: str) -> list[str]:
    """The result column name of each BY combination of ``term``."""
    namer = ColumnNamer(term.by_columns, naming, max_length, used,
                        prefix=label)
    return [namer.name(values) for values in combos]


def cells(term: model.AggregateTerm, combos: list[tuple],
          naming: NamingPolicy, max_length: int, used: set[str],
          label: str) -> Iterator[tuple[str, ast.Expr]]:
    """``(result column name, Dh = vh AND ... AND Dk = vk)`` per BY
    combination of ``term`` (IS NULL for a NULL value)."""
    refs = cols(term.by_columns)
    names = cell_names(term, combos, naming, max_length, used, label)
    for name, values in zip(names, combos):
        yield name, ast.cell_match(refs, values)


def _family(term: model.AggregateTerm, combos: list[tuple],
            template: ast.Expr, type_name: str, naming: NamingPolicy,
            max_length: int, used: set[str], label: str
            ) -> _ResultColumns:
    """The cells of ``term``: ``template`` with each combination's
    match in place of :data:`~repro.sql.ast.MATCH`."""
    return _ResultColumns(
        cell_names(term, combos, naming, max_length, used, label),
        type_name, ast.CellFamily(template, cols(term.by_columns),
                                  tuple(combos)))


def _matched(match: ast.Expr) -> ast.Expr:
    """``sum(CASE WHEN match THEN 1 ELSE 0 END) > 0``: the group has a
    row of this combination."""
    return ast.BinaryOp(">", call("sum", case(match, ONE, ZERO)), ZERO)


def _direct_columns(db: Database, query: model.PercentageQuery,
                    combos: dict[int, list[tuple]],
                    strategy: HorizontalStrategy
                    ) -> tuple[list[_ResultColumns], str,
                               tuple[str, ...]]:
    """Result columns computed straight from F in one scan."""
    used = {c.lower() for c in query.group_by}
    columns: list[_ResultColumns] = []
    multiple = len(query.horizontal_terms()) > 1
    max_len = db.catalog.max_name_length
    match = ast.MATCH

    for term in query.terms:
        if not term.is_horizontal:
            columns.append(_plain_direct_column(db, query, term, used))
            continue
        arg = common.argument(term)
        label = f"{term.label()}_" if multiple else ""
        if term.kind == model.HPCT:
            # Three-way cell semantics, kept transposition-consistent
            # with Vpct: a zero/all-NULL group denominator nulls the
            # whole row; a combination with rows but an all-NULL
            # numerator is NULL (its Vpct row is NULL); only a
            # genuinely absent combination is 0.
            total = call("sum", arg)
            share = ast.BinaryOp("/", call("sum", case(match, arg)),
                                 total)
            select = case(ast.BinaryOp("<>", total, ZERO),
                          case(_matched(match), share, ZERO))
            type_name = "REAL"
        else:
            select = call(term.func, case(match, arg),
                          distinct=term.distinct)
            if term.func == "count":
                # count() alone would report 0 for groups with no
                # qualifying rows; the paper requires NULL there,
                # consistent with the SPJ outer joins (DMKD Section
                # 3.4).  Guard on the match count.
                select = case(_matched(match), select)
            select = _apply_default(select, term)
            type_name = _hagg_type_name(db, query.table, term)
        columns.append(_family(term, combos[term.position], select,
                               type_name, strategy.naming, max_len,
                               used, label))
    return columns, query.table, query.group_by


def _plain_direct_column(db: Database, query: model.PercentageQuery,
                         term: model.AggregateTerm,
                         used: set[str]) -> _ResultColumns:
    name = common.vertical_term_name(term, used)
    if term.argument is None:
        return _ResultColumns([name], "INT", call("count", common.STAR))
    return _ResultColumns([name], _hagg_type_name(db, query.table, term),
                          call(term.func, term.argument,
                               distinct=term.distinct))


def _hagg_type_name(db: Database, table: str,
                    term: model.AggregateTerm) -> str:
    if term.func == "count":
        return "INT"
    arg_type = common.infer_expr_type(db, table, term.argument)
    if term.func in ("min", "max"):
        return common.column_type_name(arg_type)
    return "REAL"


def _apply_default(select: ast.Expr,
                   term: model.AggregateTerm) -> ast.Expr:
    if term.default is None:
        return select
    return call("coalesce", select, common.literal(term.default))


# ----------------------------------------------------------------------
# Indirect strategy: FV first, then transpose
# ----------------------------------------------------------------------
def _indirect_columns(db: Database, query: model.PercentageQuery,
                      combos: dict[int, list[tuple]],
                      strategy: HorizontalStrategy, prefix: str,
                      result: GeneratedPlan
                      ) -> tuple[list[_ResultColumns], str,
                                 tuple[str, ...]]:
    """Materialize FV at the D1..Dj + allBY level, then express every
    result column as a distributive aggregate over FV."""
    for term in query.terms:
        if term.distinct:
            raise PercentageQueryError(
                "count(DISTINCT ...) is not distributive; the indirect "
                "(from-FV) strategy cannot evaluate it -- use the "
                "direct strategy")
        if term.func in ("var", "stdev"):
            raise PercentageQueryError(
                f"{term.func}() is not distributive over partial "
                f"aggregates; use the direct (from-F) strategy")

    all_by = _union_by_columns(query)
    fv_group = tuple(query.group_by) + all_by

    base_columns: dict[int, dict[str, str]] = {}
    fv_table = _generate_fv(db, query, all_by, fv_group, base_columns,
                            strategy, prefix, result)

    used = {c.lower() for c in query.group_by}
    columns: list[_ResultColumns] = []
    multiple = len(query.horizontal_terms()) > 1
    max_len = db.catalog.max_name_length
    match = ast.MATCH

    for term in query.terms:
        bases = base_columns[term.position]
        if not term.is_horizontal:
            name = common.vertical_term_name(term, used)
            columns.append(_ResultColumns(
                [name], _hagg_type_name(db, query.table, term)
                if term.argument is not None else "INT",
                _distributive(term, bases, match=None)))
            continue
        label = f"{term.label()}_" if multiple else ""
        if term.kind == model.HPCT:
            # Mirror the direct strategy's three-way semantics from FV
            # alone: every percentage in the group is NULL exactly when
            # the group denominator was zero/all-NULL (a healthy group
            # always has one non-NULL pct), a matching FV row carries
            # the cell's value (NULL when its numerator was all-NULL),
            # and no matching row means the combination is absent -> 0.
            pct = ast.ColumnRef(bases["pct"])
            healthy = ast.BinaryOp(">", call("count", pct), ZERO)
            select = case(healthy, case(
                _matched(match), call("sum", case(match, pct)), ZERO))
            type_name = "REAL"
        else:
            select = _distributive(term, bases, match)
            select = _apply_default(select, term)
            type_name = _hagg_type_name(db, query.table, term)
        columns.append(_family(term, combos[term.position], select,
                               type_name, strategy.naming, max_len,
                               used, label))
    return columns, fv_table, query.group_by


def _union_by_columns(query: model.PercentageQuery) -> tuple[str, ...]:
    ordered: list[str] = []
    for term in query.horizontal_terms():
        for column in term.by_columns:
            if column not in ordered:
                ordered.append(column)
    return tuple(ordered)


def _generate_fv(db: Database, query: model.PercentageQuery,
                 all_by: tuple[str, ...], fv_group: tuple[str, ...],
                 base_columns: dict[int, dict[str, str]],
                 strategy: HorizontalStrategy, prefix: str,
                 result: GeneratedPlan) -> str:
    """Build FV.  With Hpct terms present FV is itself a vertical
    percentage table (composed through generate_vertical); otherwise a
    plain aggregate at the finer level."""
    used: set[str] = {c.lower() for c in fv_group}
    sub_terms: list[model.AggregateTerm] = []

    def add_base(term: model.AggregateTerm, role: str, func: str,
                 kind: str) -> str:
        name = f"b{term.position}_{role}"
        sub_terms.append(model.AggregateTerm(
            kind=kind, func=func, argument=term.argument,
            by_columns=all_by if kind == model.VPCT else (),
            alias=name, position=len(sub_terms)))
        used.add(name)
        return name

    for term in query.terms:
        bases: dict[str, str] = {}
        if term.kind == model.HPCT:
            bases["pct"] = add_base(term, "pct", "vpct", model.VPCT)
        else:
            func = term.func
            if func in ("sum", "min", "max"):
                bases["agg"] = add_base(term, func, func,
                                        model.VERTICAL)
            elif func == "count":
                bases["cnt"] = add_base(term, "cnt", "count",
                                        model.VERTICAL)
            else:  # avg: needs sum and count
                bases["sum"] = add_base(term, "sum", "sum",
                                        model.VERTICAL)
                bases["cnt"] = add_base(term, "cnt", "count",
                                        model.VERTICAL)
        base_columns[term.position] = bases

    sub_query = model.PercentageQuery(
        table=query.table, group_by=fv_group,
        dimensions=fv_group, terms=sub_terms, where=query.where,
        sql=f"(FV step of: {query.sql})")

    if any(t.kind == model.VPCT for t in sub_terms):
        vertical = strategy.vertical
        if vertical.single_statement:
            raise PercentageQueryError(
                "the FV step needs a materialized table; disable "
                "single_statement in the vertical strategy")
        sub_plan = generate_vertical(db, sub_query, vertical)
        result.extend(sub_plan)
        return sub_plan.result_table

    # Plain FV (companion paper): one CREATE + INSERT.
    fv = f"{prefix}_fv"
    columns = common.typed_columns(db, query.table, fv_group)
    keys = cols(fv_group)
    selects: list[ast.Expr] = list(keys)
    for term in sub_terms:
        type_name = "INT" if term.func == "count" \
            else _hagg_type_name(db, query.table, term)
        if term.func == "sum":
            type_name = "REAL"
        columns.append(ast.ColumnSpec(term.alias, type_name))
        selects.append(call(term.func, common.argument(term)))
    result.add(ast.CreateTable(fv, tuple(columns), fv_group),
               plan_mod.CREATE_TEMP)
    result.temp_tables.append(fv)
    result.add(ast.InsertSelect(fv, common.select(
        selects, common.tables(query.table), query.where, keys)),
        plan_mod.AGGREGATE_FK)
    return fv


def _distributive(term: model.AggregateTerm, bases: dict[str, str],
                  match: Optional[ast.Expr]) -> ast.Expr:
    """Re-aggregate FV base columns up to D1..Dj, optionally filtered
    to one BY combination (standard aggregates are distributive /
    algebraic, companion paper Section 3.4)."""

    def piece(column: str) -> ast.Expr:
        ref = ast.ColumnRef(column)
        return ref if match is None else case(match, ref)

    func = term.func
    if func in ("min", "max", "sum"):
        return call(func, piece(bases["agg"]))
    if func == "count":
        if match is None:
            # A plain count re-aggregated over an empty FV (empty F,
            # no GROUP BY) must report 0, like count() itself; the
            # sum of partial counts would report NULL.  Filtered
            # counts keep NULL: a missing BY-combination is NULL in
            # the direct strategy and the SPJ outer joins alike.
            return call("coalesce", call("sum", piece(bases["cnt"])), ZERO)
        return call("sum", piece(bases["cnt"]))
    # avg = sum of sums / sum of counts, zero-guarded.
    total = call("sum", piece(bases["sum"]))
    count = call("sum", piece(bases["cnt"]))
    return case(ast.BinaryOp("<>", count, ZERO),
                ast.BinaryOp("/", total, count))


# ----------------------------------------------------------------------
# FH emission (with vertical partitioning)
# ----------------------------------------------------------------------
def _partitions(n_keys: int, columns: list[_ResultColumns],
                max_columns: int) -> list[list[_ResultColumns]]:
    """:func:`split_result_columns` over the runs' columns, each
    partition as the runs cut to its column range: a family split
    across two partitions is two families."""
    width = sum(len(run.names) for run in columns)
    ranges = [(chunk[0], chunk[-1] + 1) if chunk else (0, 0)
              for chunk in split_result_columns(n_keys, range(width),
                                                max_columns)]
    partitions = []
    for start, stop in ranges:
        chunk, at = [], 0
        for run in columns:
            lo, hi = max(start - at, 0), min(stop - at, len(run.names))
            if lo < hi:
                chunk.append(run if hi - lo == len(run.names)
                             else run.cut(lo, hi))
            at += len(run.names)
        partitions.append(chunk)
    return partitions


def _emit_transpose(db: Database, query: model.PercentageQuery,
                    columns: list[_ResultColumns], source: str,
                    group_keys: tuple[str, ...], prefix: str,
                    result: GeneratedPlan, where,
                    type_source: str) -> None:
    """CREATE the FH table(s) and INSERT the transposed aggregation,
    splitting FH vertically when the DBMS column limit would be
    exceeded (Section 3.2 "Issues"; DMKD Section 3.6).

    ``source`` (F or the not-yet-created FV) is what the INSERT reads;
    ``type_source`` is an existing table carrying the key columns'
    types.
    """
    partitions = _partitions(len(group_keys), columns,
                             db.catalog.max_columns)
    keys = cols(group_keys)
    key_defs = common.typed_columns(db, type_source, group_keys)

    tables = []
    for p, chunk in enumerate(partitions):
        fh = f"{prefix}_fh" if len(partitions) == 1 \
            else f"{prefix}_fh{p + 1}"
        tables.append(fh)
        defs = (*key_defs, *(ast.ColumnSpec(name, run.type_name)
                             for run in chunk for name in run.names))
        result.add(ast.CreateTable(fh, defs, group_keys),
                   plan_mod.CREATE_TEMP)
        result.temp_tables.append(fh)
        selects = [*keys, *(run.select for run in chunk)]
        result.add(ast.InsertSelect(fh, common.select(
            selects, common.tables(source), where, keys)),
            plan_mod.TRANSPOSE)

    if len(tables) == 1:
        result.result_table = tables[0]
        result.result_statement = common.select_all(tables[0],
                                                    group_keys)
        return

    # Assemble partitions for the caller (the stored tables stay
    # within the column limit; the transient result may exceed it).
    first = tables[0]
    selects = list(cols(group_keys, first))
    for table, chunk in zip(tables, partitions):
        selects.extend(ast.ColumnRef(name, table)
                       for run in chunk for name in run.names)
    conditions: list[ast.Expr] = []
    for other in tables[1:]:
        conditions += common.null_safe_equalities(first, other,
                                                  group_keys)
    result.result_table = None
    result.result_statement = common.select(
        selects, common.tables(*tables), common.conjunction(conditions),
        order_by=keys)
