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

from dataclasses import dataclass
from typing import Optional

from repro.api.database import Database
from repro.core import common, model, plan as plan_mod
from repro.core.common import NULL, ZERO, cols, conjunction
from repro.core.layout import Layout, TermLayout, layout_of
from repro.core.plan import GeneratedPlan
from repro.errors import PercentageQueryError
from repro.sql import ast


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
    layout = layout_of(db.catalog, fact)

    if strategy.missing_rows == "pre":
        _preprocess_missing_rows(db, fact, layout, result)

    if strategy.single_statement:
        _generate_single_statement(fact, layout, result)
        return result

    limit = db.catalog.max_name_length
    fk = plan_mod.temp_name(prefix, "fk", limit)
    _generate_fk(db, fact, layout, fk, result)
    vpct = [i for i, t in enumerate(layout.terms) if t.kind == model.VPCT]
    fj = {i: plan_mod.temp_name(prefix, f"fj{n + 1}", limit)
          for n, i in enumerate(vpct)}
    # Bottom-up over the dimension lattice: finer totals first, so
    # coarser ones can re-aggregate them instead of rescanning Fk.
    for i, source in layout.lattice:
        _generate_fj(db, fact, layout.terms[i], fj[i], fk, strategy,
                     result, finer=fj[source] if source is not None
                     and strategy.fj_from_fk else None)
    _generate_indexes(layout, fj, fk, strategy, result)

    if strategy.use_update:
        _generate_update_division(db, fact, layout, fj, fk, result)
        result.result_table = fk
    else:
        fv = plan_mod.temp_name(prefix, "fv", limit)
        _generate_insert_division(db, fact, layout, fj, fk, fv, result)
        result.result_table = fv

    if strategy.missing_rows == "post":
        _postprocess_missing_rows(fact, layout, result.result_table,
                                  result)

    result.result_statement = common.select_all(result.result_table,
                                                fact.group_by)
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
    if query.source_select is not None:
        select = common.materialization_select(query)
    elif db.catalog.has_view(query.table):
        # F is a view: snapshot it so downstream statements (and
        # schema inference) see a plain table.
        select = common.select_all(query.table)
    else:
        return query.table
    view = plan_mod.temp_name(prefix, "f", db.catalog.max_name_length)
    statement = ast.CreateTableAs(view, select)
    result.add(statement, plan_mod.MATERIALIZE)
    result.temp_tables.append(view)
    common.feedback(db, statement)
    return view


# ----------------------------------------------------------------------
# Step generators
# ----------------------------------------------------------------------
def _generate_fk(db: Database, query: model.PercentageQuery,
                 layout: Layout, fk: str, result: GeneratedPlan) -> None:
    """CREATE + INSERT the fine-level aggregate Fk (from F only; the
    finest level "can only be computed from F")."""
    columns = common.typed_columns(db, query.table, query.group_by)
    columns += _term_columns(layout)
    result.create_temp(fk, columns, query.group_by)

    keys = cols(query.group_by)
    selects = [*keys, *(_fk_aggregate(t.term) for t in layout.terms)]
    result.add(ast.InsertSelect(fk, common.select(
        selects, common.tables(query.table), query.where, keys)),
        plan_mod.AGGREGATE_FK)


def _term_columns(layout: Layout) -> list[ast.ColumnSpec]:
    """The term columns of Fk and FV: a Vpct term's REAL sum is
    divided in place by the UPDATE strategy."""
    return [ast.ColumnSpec((t.name,), common.column_type_name(t.sql_type))
            for t in layout.terms]


def _fk_aggregate(term: model.AggregateTerm) -> ast.FuncCall:
    """The base aggregate stored in Fk for one term (Vpct stores the
    sum to be divided; other terms store their own aggregate)."""
    if term.kind == model.VPCT:
        return common.call("sum", common.argument(term))
    return common.call(term.func, common.argument(term),
                       distinct=term.distinct)


def _generate_fj(db: Database, query: model.PercentageQuery,
                 t: TermLayout, fj: str, fk: str,
                 strategy: VerticalStrategy, result: GeneratedPlan,
                 finer: Optional[str]) -> None:
    """CREATE + INSERT one totals table Fj: from the ``finer`` Fj the
    lattice allows, else from Fk (partial aggregates), else from F."""
    columns = common.typed_columns(db, query.table, t.totals)
    columns.append(ast.ColumnSpec(("total",), "REAL"))
    result.create_temp(fj, columns, t.totals)

    keys = cols(t.totals)
    where = None
    if finer is not None:
        source, measure = finer, ast.ColumnRef("total")
    elif strategy.fj_from_fk:
        source, measure = fk, ast.ColumnRef(t.name)
    else:
        source, measure = query.table, common.argument(t.term)
        where = query.where
    body = common.select([*keys, common.call("sum", measure)],
                         common.tables(source), where, keys)
    result.add(ast.InsertSelect(fj, body), plan_mod.AGGREGATE_FJ)


def _generate_indexes(layout: Layout, fj: dict[int, str], fk: str,
                      strategy: VerticalStrategy,
                      result: GeneratedPlan) -> None:
    if not strategy.create_indexes:
        return
    for i, t in enumerate(layout.terms):
        if t.kind != model.VPCT or not t.totals:
            continue
        if strategy.matching_indexes:
            result.add(ast.CreateIndex(f"{fj[i]}_ix", fj[i], t.totals),
                       plan_mod.INDEX)
        result.add(ast.CreateIndex(f"{fk}_ix{i + 1}", fk, t.totals),
                   plan_mod.INDEX)


def _division_case(fk: str, column: str, fj: str) -> ast.CaseWhen:
    """The guarded division for one Vpct term."""
    total = ast.ColumnRef("total", fj)
    return common.case(ast.BinaryOp("<>", total, ZERO),
                       ast.BinaryOp("/", ast.ColumnRef(column, fk), total))


def _generate_insert_division(db: Database,
                              query: model.PercentageQuery,
                              layout: Layout, fj: dict[int, str],
                              fk: str, fv: str,
                              result: GeneratedPlan) -> None:
    columns = common.typed_columns(db, query.table, query.group_by)
    columns += _term_columns(layout)
    result.create_temp(fv, columns, query.group_by)

    selects: list[ast.Expr] = list(cols(query.group_by, fk))
    sources = [fk]
    join_conditions: list[ast.Expr] = []
    for i, t in enumerate(layout.terms):
        if t.kind == model.VPCT:
            selects.append(_division_case(fk, t.name, fj[i]))
            sources.append(fj[i])
            # Null-safe: a NULL totals key is a group like any other,
            # and plain = would drop its rows from FV.
            join_conditions += common.null_safe_equalities(
                fj[i], fk, t.totals)
        else:
            selects.append(ast.ColumnRef(t.name, fk))
    result.add(ast.InsertSelect(fv, common.select(
        selects, common.tables(*sources), conjunction(join_conditions))),
        plan_mod.DIVIDE)


def _generate_update_division(db: Database,
                              query: model.PercentageQuery,
                              layout: Layout, fj: dict[int, str],
                              fk: str, result: GeneratedPlan) -> None:
    """UPDATE Fk in place; FV = Fk.  Global-total terms (empty D1..Dj)
    have no join key, so the generator fetches the scalar total itself
    and emits a literal division -- part of the "feedback process" the
    architecture already requires."""
    for i, t in enumerate(layout.terms):
        if t.kind != model.VPCT:
            continue
        target = ast.TableRef(fk)
        if t.totals:
            condition = conjunction(common.null_safe_equalities(
                fk, fj[i], t.totals))
            result.add(ast.Update(
                target, (ast.Assignment(
                    t.name, _division_case(fk, t.name, fj[i])),),
                (ast.TableRef(fj[i]),), condition),
                plan_mod.UPDATE_DIVIDE)
        else:
            if not db.has_table(query.table):
                raise PercentageQueryError(
                    "the UPDATE strategy with global totals needs to "
                    "read the total at generation time, which is not "
                    "possible for a materialized view; use the INSERT "
                    "strategy instead")
            total = common.feedback(db, common.select(
                [common.call("sum", common.argument(t.term))],
                common.tables(query.table), query.where)).to_rows()[0][0]
            if total in (None, 0):
                value: ast.Expr = NULL
            else:
                value = ast.BinaryOp("/", ast.ColumnRef(t.name),
                                     ast.Literal(float(total)))
            result.add(ast.Update(
                target, (ast.Assignment(t.name, value),)),
                plan_mod.UPDATE_DIVIDE)


def _generate_single_statement(query: model.PercentageQuery,
                               layout: Layout,
                               result: GeneratedPlan) -> None:
    vpct = [t for t in layout.terms if t.kind == model.VPCT]
    if len(vpct) != 1:
        raise PercentageQueryError(
            "the single-statement rephrasal supports exactly one "
            "Vpct() term")
    t = vpct[0]
    source = common.tables(query.table)
    keys = cols(query.group_by)
    fk_select = common.select(
        [*keys, *(ast.SelectItem(_fk_aggregate(p.term), p.name)
                  for p in layout.terms)],
        source, query.where, keys)
    totals = cols(t.totals)
    fj_select = common.select(
        [*totals, ast.SelectItem(
            common.call("sum", common.argument(t.term)), "total")],
        source, query.where, totals)
    selects: list[ast.Expr] = list(cols(query.group_by, "Fk"))
    for p in layout.terms:
        if p.kind == model.VPCT:
            selects.append(ast.SelectItem(
                _division_case("Fk", p.name, "Fj"), p.name))
        else:
            selects.append(ast.ColumnRef(p.name, "Fk"))
    derived = ast.FromClause(
        ast.SubquerySource(fk_select, "Fk"),
        (ast.JoinStep("cross", ast.SubquerySource(fj_select, "Fj")),))
    result.result_statement = common.select(
        selects, derived,
        conjunction(common.null_safe_equalities("Fj", "Fk", t.totals)),
        order_by=keys)
    result.description += " (derived tables)"


# ----------------------------------------------------------------------
# Missing rows (Section 3.1, "Issues with vertical percentages")
# ----------------------------------------------------------------------
def _single_vpct_with_cells(layout: Layout, what: str) -> TermLayout:
    terms = [t for t in layout.terms if t.kind == model.VPCT]
    if len(terms) != 1:
        raise PercentageQueryError(
            f"{what} missing-row handling supports exactly one Vpct() "
            f"term")
    if not terms[0].term.by_columns:
        raise PercentageQueryError(
            f"{what} missing-row handling needs a BY clause (cells are "
            f"defined by the BY columns)")
    return terms[0]


def _preprocess_missing_rows(db: Database,
                             query: model.PercentageQuery,
                             layout: Layout,
                             result: GeneratedPlan) -> None:
    """Insert zero-measure rows into F for every absent
    (totals x BY-combination) cell.  Mutates F, and -- as the paper
    warns -- silently corrupts row-count percentages like Vpct(1)."""
    t = _single_vpct_with_cells(layout, "pre")
    term, totals = t.term, t.totals
    by_cols = list(term.by_columns)
    if not isinstance(term.argument, ast.ColumnRef):
        raise PercentageQueryError(
            "pre-processing requires the Vpct argument to be a plain "
            "measure column")
    measure = term.argument.name

    schema = db.table(query.table).schema
    select_values: list[ast.Expr] = []
    for column in schema.column_names():
        lowered = column.lower()
        if lowered in totals:
            select_values.append(ast.ColumnRef(column, "g"))
        elif lowered in by_cols:
            select_values.append(ast.ColumnRef(column, "c"))
        elif lowered == measure.lower():
            select_values.append(ZERO)
        else:
            select_values.append(NULL)
    result.add(_fill_missing_cells(query, query.table, "f", totals,
                                   query.table, by_cols, select_values),
               plan_mod.MISSING_ROWS)


def _postprocess_missing_rows(query: model.PercentageQuery,
                              layout: Layout, fv: str,
                              result: GeneratedPlan) -> None:
    """Insert zero-percentage rows into FV for absent cells."""
    t = _single_vpct_with_cells(layout, "post")
    totals = t.totals
    by_cols = list(t.term.by_columns)

    select_values: list[ast.Expr] = [
        ast.ColumnRef(column, "g" if column in totals else "c")
        for column in query.group_by]
    for p in layout.terms:
        select_values.append(ZERO if p is t else NULL)
    result.add(_fill_missing_cells(query, fv, "v", totals, fv, by_cols,
                                   select_values),
               plan_mod.MISSING_ROWS)


def _fill_missing_cells(query: model.PercentageQuery, target: str,
                        alias: str, totals: tuple[str, ...],
                        totals_source: str, by_cols: list[str],
                        select_values: list[ast.Expr]
                        ) -> ast.InsertSelect:
    """``INSERT INTO target SELECT ... FROM (totals) g, (combinations)
    c LEFT OUTER JOIN target alias ON ... WHERE alias.D1 IS NULL``:
    one row per (totals x BY-combination) cell ``target`` lacks."""
    combos = ast.SubquerySource(common.select(
        cols(by_cols), common.tables(query.table), distinct=True), "c")
    probe = common.equalities(alias, "c", by_cols)
    if totals:
        first: ast.FromSource = ast.SubquerySource(common.select(
            cols(totals), common.tables(totals_source), distinct=True),
            "g")
        joins = [ast.JoinStep("cross", combos)]
        probe = common.equalities(alias, "g", totals) + probe
    else:
        first, joins = combos, []
    joins.append(ast.JoinStep("left", ast.TableRef(target, alias),
                              conjunction(probe)))
    return ast.InsertSelect(target, common.select(
        select_values, ast.FromClause(first, tuple(joins)),
        ast.IsNull(ast.ColumnRef(query.group_by[0], alias))))
