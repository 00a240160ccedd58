"""Code generation for vertical percentage queries (Section 3.1).

Given a percentage query with ``Vpct()`` terms, this module emits the
standard-SQL statement sequence of the paper's evaluation strategy:

1. aggregate ``F`` at the fine level into ``Fk``
   (``GROUP BY D1, ..., Dk``; the only level computable from ``F``);
2. per Vpct term, aggregate the totals into ``Fj`` -- either from
   ``Fk`` (the partial-aggregate optimization, sum() is distributive)
   or from ``F``;
3. optionally create identical indexes on the common subkey of ``Fj``
   and ``Fk``;
4. divide: either INSERT the percentages into a fresh ``FV`` joining
   ``Fk`` with the ``Fj`` tables, or UPDATE ``Fk`` in place
   (``FV = Fk``), both guarding division by zero with CASE;
5. optionally repair missing rows by post-processing ``FV`` (or
   pre-processing ``F``).

Every knob in :class:`VerticalStrategy` corresponds to one column of
the paper's Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.api.database import Database
from repro.core import common, model, plan as plan_mod
from repro.core.plan import GeneratedPlan
from repro.errors import PercentageQueryError
from repro.sql.formatter import format_literal, quote_ident


@dataclass(frozen=True)
class VerticalStrategy:
    """Evaluation knobs for Vpct queries (Table 4 columns).

    Attributes:
        fj_from_fk: compute the coarse aggregate from the partial
            aggregate ``Fk`` rather than rescanning ``F`` (Table 4
            column (4) turns this *off*).
        use_update: produce ``FV`` by updating ``Fk`` in place instead
            of inserting into a third table (column (3)); saves the
            third temp table at the cost the paper measured.
        create_indexes: create indexes on the common subkey of ``Fj``
            and ``Fk`` before the division join.  The statements are
            emitted as the paper writes them; this engine keeps an
            index as a catalog definition only (DESIGN.md section 2).
        matching_indexes: make those indexes identical; when False only
            ``Fk`` is indexed, reproducing column (2)'s mismatched
            setup.
        single_statement: emit the derived-table rephrasal (one SELECT
            with two subqueries) -- "a rephrasal of the first
            strategy"; only valid for one Vpct term and no UPDATE.
        missing_rows: ``"none"`` (default; the paper notes users may
            not want insertion), ``"post"`` (insert zero-percentage
            rows into ``FV``), or ``"pre"`` (insert zero-measure rows
            into ``F`` itself -- mutates ``F``!).
    """

    fj_from_fk: bool = True
    use_update: bool = False
    create_indexes: bool = True
    matching_indexes: bool = True
    single_statement: bool = False
    missing_rows: str = "none"

    def __post_init__(self) -> None:
        if self.missing_rows not in ("none", "post", "pre"):
            raise ValueError("missing_rows must be none|post|pre")

    def describe(self) -> str:
        parts = ["vertical"]
        parts.append("Fj<-Fk" if self.fj_from_fk else "Fj<-F")
        parts.append("update" if self.use_update else "insert")
        if not self.create_indexes:
            parts.append("no-index")
        elif not self.matching_indexes:
            parts.append("mismatched-index")
        if self.single_statement:
            parts.append("single-statement")
        if self.missing_rows != "none":
            parts.append(f"missing-rows={self.missing_rows}")
        return " ".join(parts)


@dataclass
class _TermPlan:
    """Resolved layout for one aggregate term inside Fk/FV."""

    term: model.AggregateTerm
    column: str                  # storage/result column name
    totals: tuple[str, ...] = ()  # D1..Dj for Vpct terms
    fj_table: str = ""


def generate_vertical(db: Database, query: model.PercentageQuery,
                      strategy: Optional[VerticalStrategy] = None
                      ) -> GeneratedPlan:
    """Generate the statement sequence for a Vpct query."""
    strategy = strategy or VerticalStrategy()
    if not query.vertical_pct_terms():
        raise PercentageQueryError("the query has no Vpct() term")
    if query.has_horizontal:
        raise PercentageQueryError(
            "vertical generation cannot handle horizontal terms")

    prefix = plan_mod.fresh_prefix("vp")
    result = GeneratedPlan(strategy=strategy,
                           description=strategy.describe())

    table = _materialize_if_needed(db, query, prefix, result)
    fact = replace_table(query, table)

    if strategy.missing_rows == "pre":
        _preprocess_missing_rows(db, fact, prefix, result)

    used: set[str] = set(c.lower() for c in fact.group_by)
    term_plans = [
        _TermPlan(term=t, column=common.vertical_term_name(t, used),
                  totals=_totals_of(t, fact))
        for t in fact.terms]

    if strategy.single_statement:
        _generate_single_statement(db, fact, term_plans, result)
        return result

    fk = f"{prefix}_fk"
    _generate_fk(db, fact, term_plans, fk, result)
    vpct_plans = [t for t in term_plans if t.term.kind == model.VPCT]
    for i, tp in enumerate(vpct_plans):
        tp.fj_table = f"{prefix}_fj{i + 1}"
    # Bottom-up over the dimension lattice (Section 3.1: "partial
    # aggregations need to be computed bottom-up based on the
    # dimension lattice"): generate finer totals first so coarser ones
    # can re-aggregate them instead of rescanning Fk.
    generated: list[_TermPlan] = []
    for tp in sorted(vpct_plans, key=lambda t: -len(t.totals)):
        source = _lattice_source(tp, generated) \
            if strategy.fj_from_fk else None
        _generate_fj(db, fact, tp, fk, strategy, result,
                     lattice_source=source)
        generated.append(tp)
    _generate_indexes(fact, term_plans, fk, strategy, result)

    if strategy.use_update:
        _generate_update_division(db, fact, term_plans, fk, result)
        result.result_table = fk
    else:
        fv = f"{prefix}_fv"
        _generate_insert_division(db, fact, term_plans, fk, fv, result)
        result.result_table = fv

    if strategy.missing_rows == "post":
        _postprocess_missing_rows(db, fact, term_plans,
                                  result.result_table, prefix, result)

    order = common.column_list(fact.group_by)
    result.result_select = (f"SELECT * FROM {result.result_table}"
                            + (f" ORDER BY {order}" if order else ""))
    return result


# ----------------------------------------------------------------------
def replace_table(query: model.PercentageQuery,
                  table: str) -> model.PercentageQuery:
    """The query rebased onto a (possibly materialized) fact table."""
    if table == query.table:
        return query
    return model.PercentageQuery(
        table=table, group_by=query.group_by,
        dimensions=query.dimensions, terms=query.terms,
        where=None if query.source_select is not None else query.where,
        source_select=None, sql=query.sql)


def _materialize_if_needed(db: Database, query: model.PercentageQuery,
                           prefix: str, result: GeneratedPlan) -> str:
    """Materialize a multi-table FROM clause into a temp fact table.

    The statement is executed *now*: downstream generation needs the
    table's schema (and, for horizontal queries, its distinct values).
    The step is still recorded in the plan, but the runner skips
    MATERIALIZE steps because they already ran.
    """
    if query.source_select is None:
        if db.catalog.has_view(query.table):
            # F is a view: snapshot it so downstream statements (and
            # schema inference) see a plain table.
            view = f"{prefix}_f"
            sql = (f"CREATE TABLE {view} AS SELECT * "
                   f"FROM {query.table}")
            result.add(sql, plan_mod.MATERIALIZE)
            result.temp_tables.append(view)
            db.execute(sql)
            return view
        return query.table
    view = f"{prefix}_f"
    sql = f"CREATE TABLE {view} AS {common.materialization_select(query)}"
    result.add(sql, plan_mod.MATERIALIZE)
    result.temp_tables.append(view)
    db.execute(sql)
    return view


def _totals_of(term: model.AggregateTerm,
               query: model.PercentageQuery) -> tuple[str, ...]:
    """D1..Dj for a Vpct term: GROUP BY minus the BY columns; no BY
    clause means global totals (empty tuple)."""
    if term.kind != model.VPCT:
        return ()
    if not term.by_columns:
        return ()
    by = set(term.by_columns)
    return tuple(c for c in query.group_by if c not in by)


# ----------------------------------------------------------------------
# Step generators
# ----------------------------------------------------------------------
def _generate_fk(db: Database, query: model.PercentageQuery,
                 term_plans: list[_TermPlan], fk: str,
                 result: GeneratedPlan) -> None:
    """CREATE + INSERT the fine-level aggregate Fk (from F only; the
    finest level "can only be computed from F")."""
    columns = common.typed_columns_sql(db, query.table, query.group_by)
    for tp in term_plans:
        sql_type = _storage_type_of(db, query.table, tp.term)
        columns.append(f"{quote_ident(tp.column)} "
                       f"{common.column_type_name(sql_type)}")
    key = common.column_list(query.group_by)
    result.add(f"CREATE TABLE {fk} (" + ", ".join(columns)
               + (f") PRIMARY KEY ({key})" if key else ")"),
               plan_mod.CREATE_TEMP)
    result.temp_tables.append(fk)

    selects = [common.column_list(query.group_by)] if query.group_by \
        else []
    for tp in term_plans:
        selects.append(_fk_aggregate_sql(tp.term))
    result.add(
        f"INSERT INTO {fk} SELECT " + ", ".join(selects)
        + f" FROM {query.table}" + common.where_suffix(query.where)
        + (f" GROUP BY {key}" if key else ""),
        plan_mod.AGGREGATE_FK)


def _fk_aggregate_sql(term: model.AggregateTerm) -> str:
    """The base aggregate stored in Fk for one term (Vpct stores the
    sum to be divided; other terms store their own aggregate)."""
    if term.kind == model.VPCT:
        return f"sum({common.argument_sql(term)})"
    distinct = "DISTINCT " if term.distinct else ""
    return f"{term.func}({distinct}{common.argument_sql(term)})"


def _storage_type_of(db: Database, table: str,
                     term: model.AggregateTerm):
    func = "sum" if term.kind == model.VPCT else term.func
    arg_type = common.infer_expr_type(db, table, term.argument) \
        if term.argument is not None else None
    return common.storage_type(func, arg_type) if arg_type is not None \
        else common.storage_type("count", None)


def _lattice_source(tp: _TermPlan,
                    generated: list[_TermPlan]) -> Optional[_TermPlan]:
    """A finer, already-generated totals table this term can
    re-aggregate (same argument, strictly coarser grouping)."""
    mine = set(tp.totals)
    best: Optional[_TermPlan] = None
    for candidate in generated:
        if candidate.term.argument != tp.term.argument:
            continue
        theirs = set(candidate.totals)
        if mine < theirs:
            if best is None or len(candidate.totals) < len(best.totals):
                best = candidate
    return best


def _generate_fj(db: Database, query: model.PercentageQuery,
                 tp: _TermPlan, fk: str, strategy: VerticalStrategy,
                 result: GeneratedPlan,
                 lattice_source: Optional[_TermPlan] = None) -> None:
    """CREATE + INSERT one totals table Fj: from a finer Fj when the
    lattice allows, else from Fk (partial aggregates), else from F."""
    columns = common.typed_columns_sql(db, query.table, tp.totals)
    columns.append("total REAL")
    key = common.column_list(tp.totals)
    result.add(f"CREATE TABLE {tp.fj_table} (" + ", ".join(columns)
               + (f") PRIMARY KEY ({key})" if key else ")"),
               plan_mod.CREATE_TEMP)
    result.temp_tables.append(tp.fj_table)

    prefix = f"{key}, " if key else ""
    if lattice_source is not None:
        body = (f"SELECT {prefix}sum(total) "
                f"FROM {lattice_source.fj_table}"
                + (f" GROUP BY {key}" if key else ""))
    elif strategy.fj_from_fk:
        body = (f"SELECT {prefix}sum({quote_ident(tp.column)}) FROM {fk}"
                + (f" GROUP BY {key}" if key else ""))
    else:
        body = (f"SELECT {prefix}sum({common.argument_sql(tp.term)}) "
                f"FROM {query.table}" + common.where_suffix(query.where)
                + (f" GROUP BY {key}" if key else ""))
    result.add(f"INSERT INTO {tp.fj_table} {body}", plan_mod.AGGREGATE_FJ)


def _generate_indexes(query: model.PercentageQuery,
                      term_plans: list[_TermPlan], fk: str,
                      strategy: VerticalStrategy,
                      result: GeneratedPlan) -> None:
    if not strategy.create_indexes:
        return
    for i, tp in enumerate(term_plans):
        if tp.term.kind != model.VPCT or not tp.totals:
            continue
        key = common.column_list(tp.totals)
        if strategy.matching_indexes:
            result.add(f"CREATE INDEX {tp.fj_table}_ix ON "
                       f"{tp.fj_table} ({key})", plan_mod.INDEX)
        result.add(f"CREATE INDEX {fk}_ix{i + 1} ON {fk} ({key})",
                   plan_mod.INDEX)


def _division_case(fk: str, tp: _TermPlan) -> str:
    """The guarded division for one Vpct term."""
    fj = tp.fj_table
    return (f"CASE WHEN {fj}.total <> 0 THEN "
            f"{fk}.{quote_ident(tp.column)} / {fj}.total "
            f"ELSE NULL END")


def _generate_insert_division(db: Database,
                              query: model.PercentageQuery,
                              term_plans: list[_TermPlan], fk: str,
                              fv: str, result: GeneratedPlan) -> None:
    columns = common.typed_columns_sql(db, query.table, query.group_by)
    for tp in term_plans:
        if tp.term.kind == model.VPCT:
            columns.append(f"{quote_ident(tp.column)} REAL")
        else:
            sql_type = _storage_type_of(db, query.table, tp.term)
            columns.append(f"{quote_ident(tp.column)} "
                           f"{common.column_type_name(sql_type)}")
    key = common.column_list(query.group_by)
    result.add(f"CREATE TABLE {fv} (" + ", ".join(columns)
               + (f") PRIMARY KEY ({key})" if key else ")"),
               plan_mod.CREATE_TEMP)
    result.temp_tables.append(fv)

    selects = [common.column_list(query.group_by, prefix=fk)] \
        if query.group_by else []
    sources = [fk]
    join_conditions: list[str] = []
    for tp in term_plans:
        if tp.term.kind == model.VPCT:
            selects.append(_division_case(fk, tp))
            sources.append(tp.fj_table)
            if tp.totals:
                # Null-safe: a NULL totals key is a group like any
                # other, and plain = would drop its rows from FV.
                join_conditions.append(
                    common.null_safe_equality_join(tp.fj_table, fk,
                                                   tp.totals))
        else:
            selects.append(f"{fk}.{quote_ident(tp.column)}")
    where = f" WHERE {' AND '.join(join_conditions)}" \
        if join_conditions else ""
    result.add(f"INSERT INTO {fv} SELECT " + ", ".join(selects)
               + " FROM " + ", ".join(sources) + where,
               plan_mod.DIVIDE)


def _generate_update_division(db: Database,
                              query: model.PercentageQuery,
                              term_plans: list[_TermPlan], fk: str,
                              result: GeneratedPlan) -> None:
    """UPDATE Fk in place; FV = Fk.  Global-total terms (empty D1..Dj)
    have no join key, so the generator fetches the scalar total itself
    and emits a literal division -- part of the "feedback process" the
    architecture already requires."""
    for tp in term_plans:
        if tp.term.kind != model.VPCT:
            continue
        column = quote_ident(tp.column)
        if tp.totals:
            condition = common.null_safe_equality_join(fk, tp.fj_table,
                                                       tp.totals)
            result.add(
                f"UPDATE {fk} SET {column} = "
                f"{_division_case(fk, tp)} "
                f"FROM {tp.fj_table} WHERE {condition}",
                plan_mod.UPDATE_DIVIDE)
        else:
            if not db.has_table(query.table):
                raise PercentageQueryError(
                    "the UPDATE strategy with global totals needs to "
                    "read the total at generation time, which is not "
                    "possible for a materialized view; use the INSERT "
                    "strategy instead")
            total = db.query(
                f"SELECT sum({common.argument_sql(tp.term)}) "
                f"FROM {query.table}"
                + common.where_suffix(query.where))[0][0]
            if total in (None, 0):
                result.add(f"UPDATE {fk} SET {column} = NULL",
                           plan_mod.UPDATE_DIVIDE)
            else:
                result.add(
                    f"UPDATE {fk} SET {column} = {column} / "
                    f"{format_literal(float(total))}",
                    plan_mod.UPDATE_DIVIDE)


def _generate_single_statement(db: Database,
                               query: model.PercentageQuery,
                               term_plans: list[_TermPlan],
                               result: GeneratedPlan) -> None:
    vpct_plans = [tp for tp in term_plans
                  if tp.term.kind == model.VPCT]
    if len(vpct_plans) != 1:
        raise PercentageQueryError(
            "the single-statement rephrasal supports exactly one "
            "Vpct() term")
    tp = vpct_plans[0]
    tp.fj_table = "Fj"
    key = common.column_list(query.group_by)
    fk_select = (f"SELECT {key}{', ' if key else ''}"
                 + ", ".join(
                     f"{_fk_aggregate_sql(p.term)} AS "
                     f"{quote_ident(p.column)}"
                     for p in term_plans)
                 + f" FROM {query.table}"
                 + common.where_suffix(query.where)
                 + (f" GROUP BY {key}" if key else ""))
    totals_key = common.column_list(tp.totals)
    fj_select = (f"SELECT {totals_key}{', ' if totals_key else ''}"
                 f"sum({common.argument_sql(tp.term)}) AS total"
                 f" FROM {query.table}"
                 + common.where_suffix(query.where)
                 + (f" GROUP BY {totals_key}" if totals_key else ""))
    selects = [common.column_list(query.group_by, prefix="Fk")] \
        if query.group_by else []
    for p in term_plans:
        if p.term.kind == model.VPCT:
            selects.append(_division_case("Fk", p)
                           + f" AS {quote_ident(p.column)}")
        else:
            selects.append(f"Fk.{quote_ident(p.column)}")
    where = (f" WHERE "
             f"{common.null_safe_equality_join('Fj', 'Fk', tp.totals)}"
             if tp.totals else "")
    order = f" ORDER BY {common.column_list(query.group_by)}" \
        if query.group_by else ""
    result.result_select = (
        "SELECT " + ", ".join(selects)
        + f" FROM ({fk_select}) Fk, ({fj_select}) Fj{where}{order}")
    result.description += " (derived tables)"


# ----------------------------------------------------------------------
# Missing rows (Section 3.1, "Issues with vertical percentages")
# ----------------------------------------------------------------------
def _single_vpct_with_cells(query: model.PercentageQuery,
                            what: str) -> model.AggregateTerm:
    terms = query.vertical_pct_terms()
    if len(terms) != 1:
        raise PercentageQueryError(
            f"{what} missing-row handling supports exactly one Vpct() "
            f"term")
    term = terms[0]
    if not term.by_columns:
        raise PercentageQueryError(
            f"{what} missing-row handling needs a BY clause (cells are "
            f"defined by the BY columns)")
    return term


def _preprocess_missing_rows(db: Database,
                             query: model.PercentageQuery, prefix: str,
                             result: GeneratedPlan) -> None:
    """Insert zero-measure rows into F for every absent
    (totals x BY-combination) cell.  Mutates F, and -- as the paper
    warns -- silently corrupts row-count percentages like Vpct(1)."""
    from repro.sql import ast

    term = _single_vpct_with_cells(query, "pre")
    totals = _totals_of(term, query)
    by_cols = list(term.by_columns)
    if not isinstance(term.argument, ast.ColumnRef):
        raise PercentageQueryError(
            "pre-processing requires the Vpct argument to be a plain "
            "measure column")
    measure = term.argument.name

    schema = db.table(query.table).schema
    select_values = []
    for column in schema.column_names():
        lowered = column.lower()
        if lowered in totals:
            select_values.append(f"g.{quote_ident(column)}")
        elif lowered in by_cols:
            select_values.append(f"c.{quote_ident(column)}")
        elif lowered == measure.lower():
            select_values.append("0")
        else:
            select_values.append("NULL")
    combos_select = f"SELECT DISTINCT {common.column_list(by_cols)} " \
                    f"FROM {query.table}"
    if totals:
        totals_select = (f"SELECT DISTINCT {common.column_list(totals)} "
                         f"FROM {query.table}")
        sources = f"({totals_select}) g, ({combos_select}) c"
        probe = (common.equality_join("f", "g", totals) + " AND "
                 + common.equality_join("f", "c", by_cols))
    else:
        sources = f"({combos_select}) c"
        probe = common.equality_join("f", "c", by_cols)
    first_dim = quote_ident(query.group_by[0])
    result.add(
        f"INSERT INTO {query.table} SELECT "
        + ", ".join(select_values)
        + f" FROM {sources}"
        f" LEFT OUTER JOIN {query.table} f ON {probe}"
        f" WHERE f.{first_dim} IS NULL",
        plan_mod.MISSING_ROWS)


def _postprocess_missing_rows(db: Database,
                              query: model.PercentageQuery,
                              term_plans: list[_TermPlan],
                              fv: str, prefix: str,
                              result: GeneratedPlan) -> None:
    """Insert zero-percentage rows into FV for absent cells."""
    term = _single_vpct_with_cells(query, "post")
    tp = next(p for p in term_plans if p.term is term)
    totals = tp.totals
    by_cols = list(term.by_columns)

    select_values = []
    for column in query.group_by:
        if column in totals:
            select_values.append(f"g.{quote_ident(column)}")
        else:
            select_values.append(f"c.{quote_ident(column)}")
    for p in term_plans:
        select_values.append("0" if p.term is term else "NULL")

    combos_select = f"SELECT DISTINCT {common.column_list(by_cols)} " \
                    f"FROM {query.table}"
    if totals:
        totals_select = (f"SELECT DISTINCT {common.column_list(totals)} "
                         f"FROM {fv}")
        sources = f"({totals_select}) g, ({combos_select}) c"
        probe = common.equality_join("v", "g", totals) + " AND " + \
            common.equality_join("v", "c", by_cols)
    else:
        sources = f"({combos_select}) c"
        probe = common.equality_join("v", "c", by_cols)
    first_dim = quote_ident(query.group_by[0])
    result.add(
        f"INSERT INTO {fv} SELECT " + ", ".join(select_values)
        + f" FROM {sources} LEFT OUTER JOIN {fv} v ON {probe}"
        f" WHERE v.{first_dim} IS NULL",
        plan_mod.MISSING_ROWS)
