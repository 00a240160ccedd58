"""Shared helpers for the code generators."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api.database import Database
from repro.core import model
from repro.engine.types import SQLType, infer_type
from repro.errors import PercentageQueryError
from repro.sql import ast
from repro.sql.formatter import format_expr, format_select, quote_ident


def infer_expr_type(db: Database, table: str, expr: ast.Expr) -> SQLType:
    """Best-effort static type of an argument expression over ``table``.

    Column references use the schema; literals their own type; any
    compound arithmetic is assumed REAL (safe for aggregation storage).
    """
    if isinstance(expr, ast.ColumnRef):
        schema = db.table(table).schema
        if schema.has_column(expr.name):
            return schema.column_type(expr.name)
        return SQLType.REAL
    if isinstance(expr, ast.Literal) and expr.value is not None:
        return infer_type(expr.value)
    return SQLType.REAL


def storage_type(func: str, arg_type: SQLType) -> SQLType:
    """Column type for storing an aggregate's value in a temp table.

    Sums are widened to REAL (the UPDATE-based strategy overwrites the
    same column with a percentage, and integer sums lose nothing a
    percentage query cares about); counts are INTEGER; min/max keep
    the argument type; avg is REAL.
    """
    if func == "count":
        return SQLType.INTEGER
    if func in ("min", "max"):
        return arg_type
    return SQLType.REAL


def column_type_name(sql_type: SQLType) -> str:
    return {SQLType.INTEGER: "INT", SQLType.REAL: "REAL",
            SQLType.VARCHAR: "VARCHAR",
            SQLType.BOOLEAN: "BOOLEAN"}[sql_type]


def typed_columns_sql(db: Database, table: str,
                      columns: Sequence[str]) -> list[str]:
    """``"name TYPE"`` fragments for dimension columns copied from
    ``table``'s schema."""
    schema = db.table(table).schema
    fragments = []
    for name in columns:
        sql_type = schema.column_type(name)
        fragments.append(f"{quote_ident(name)} "
                         f"{column_type_name(sql_type)}")
    return fragments


def where_suffix(where: Optional[ast.Expr]) -> str:
    if where is None:
        return ""
    return f" WHERE {format_expr(where)}"


def column_list(columns: Sequence[str], prefix: str = "") -> str:
    if prefix:
        return ", ".join(f"{prefix}.{quote_ident(c)}" for c in columns)
    return ", ".join(quote_ident(c) for c in columns)


def equality_join(left: str, right: str,
                  columns: Sequence[str]) -> str:
    """``l.c1 = r.c1 AND l.c2 = r.c2 ...``"""
    return " AND ".join(
        f"{left}.{quote_ident(c)} = {right}.{quote_ident(c)}"
        for c in columns)


def null_safe_equality_join(left: str, right: str,
                            columns: Sequence[str]) -> str:
    """Equality join where NULL keys match each other.

    GROUP BY places all NULLs of a dimension into one group (Gray's
    data-cube semantics), so joining aggregate levels on plain ``=``
    silently drops NULL groups.  The engine's planner recognizes this
    exact pattern and keeps it a hash equi-join.
    """

    def one(c: str) -> str:
        l, r = f"{left}.{quote_ident(c)}", f"{right}.{quote_ident(c)}"
        return f"({l} = {r} OR ({l} IS NULL AND {r} IS NULL))"

    return " AND ".join(one(c) for c in columns)


def vertical_term_name(term: model.AggregateTerm,
                       used: set[str]) -> str:
    """Output column name for a (vertical or percentage) term."""
    if term.alias:
        base = term.alias
    elif term.argument is not None and \
            isinstance(term.argument, ast.ColumnRef):
        base = term.argument.name
        if term.kind == model.VERTICAL:
            base = f"{term.func}_{base}"
    else:
        base = f"{term.func}_{term.position + 1}"
    name = base
    i = 2
    while name.lower() in used:
        name = f"{base}_{i}"
        i += 1
    used.add(name.lower())
    return name


def materialization_select(query: model.PercentageQuery) -> str:
    """The SELECT that materializes F from a multi-table FROM clause.

    Projects every column the downstream statements need: grouping
    columns, every BY column, and every column referenced inside
    aggregate arguments.  Names become bare in the materialized table.
    """
    source = query.source_select
    if source is None:
        raise PercentageQueryError("query has a plain base table; no "
                                   "materialization needed")
    needed: list[str] = []

    def want(name: str) -> None:
        lowered = name.lower()
        if lowered not in needed:
            needed.append(lowered)

    for column in query.group_by:
        want(column)
    for term in query.terms:
        for column in term.by_columns:
            want(column)
        if term.argument is not None:
            for ref in ast.column_refs(term.argument):
                want(ref.name)
    items = tuple(ast.SelectItem(ast.ColumnRef(c)) for c in needed)
    shell = ast.Select(items=items, from_=source.from_,
                       where=source.where)
    return format_select(shell)


def argument_sql(term: model.AggregateTerm) -> str:
    if term.argument is None:
        return "*"
    return format_expr(term.argument)
