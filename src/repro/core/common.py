"""Shared helpers for the code generators: the statement trees they
emit are built from these."""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.api.database import Database
from repro.core import model
from repro.engine.table import Table
from repro.engine.types import SQLType, infer_type
from repro.errors import PercentageQueryError
from repro.sql import ast
from repro.sql.formatter import format_statement


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


#: Leaves every generator shares: AST nodes are frozen, so one node
#: may sit in any number of trees.
NULL = ast.Literal(None)
ZERO = ast.Literal(0)
ONE = ast.Literal(1)
STAR = ast.Star()


def literal(value: Any) -> ast.Literal:
    """The literal ``parse(format_literal(value))`` reads back: a plain
    Python ``int``/``float``/``str``/``bool``/``None``, never a numpy
    scalar."""
    if isinstance(value, np.generic):
        value = value.item()
    return ast.Literal(value)


def cols(names: Sequence[str],
         table: Optional[str] = None) -> tuple[ast.ColumnRef, ...]:
    return tuple(ast.ColumnRef(name, table) for name in names)


def call(name: str, *args: ast.Expr,
         distinct: bool = False) -> ast.FuncCall:
    return ast.FuncCall(name, args, distinct=distinct)


def case(condition: ast.Expr, then: ast.Expr,
         else_: ast.Expr = NULL) -> ast.CaseWhen:
    """``CASE WHEN condition THEN then ELSE else_ END``."""
    return ast.CaseWhen(((condition, then),), else_)


def conjunction(conditions: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    """``c1 AND c2 AND ...``, left-deep as the parser reads it; None
    for no conditions."""
    result: Optional[ast.Expr] = None
    for condition in conditions:
        result = condition if result is None \
            else ast.BinaryOp("AND", result, condition)
    return result


def tables(*names: str) -> ast.FromClause:
    """``FROM t1, t2, ...``"""
    return ast.FromClause(
        ast.TableRef(names[0]),
        tuple(ast.JoinStep("cross", ast.TableRef(n)) for n in names[1:]))


def select(items: Sequence[ast.Expr], from_: ast.FromClause,
           where: Optional[ast.Expr] = None,
           group_by: Sequence[ast.Expr] = (),
           order_by: Sequence[ast.Expr] = (),
           distinct: bool = False) -> ast.Select:
    return ast.Select(
        items=tuple(i if isinstance(i, (ast.SelectItem, ast.CellFamily))
                    else ast.SelectItem(i) for i in items),
        from_=from_, where=where, group_by=tuple(group_by),
        order_by=tuple(ast.OrderItem(e) for e in order_by),
        distinct=distinct)


def select_all(table: str, order_by: Sequence[str] = ()) -> ast.Select:
    """``SELECT * FROM table [ORDER BY ...]``"""
    return select([STAR], tables(table), order_by=cols(order_by))


def typed_columns(db: Database, table: str,
                  columns: Sequence[str]) -> list[ast.ColumnSpec]:
    """Column definitions for dimension columns copied from
    ``table``'s schema."""
    schema = db.table(table).schema
    return [ast.ColumnSpec(name,
                           column_type_name(schema.column_type(name)))
            for name in columns]


def equalities(left: str, right: str,
               columns: Sequence[str]) -> list[ast.Expr]:
    """``l.c = r.c`` per column (join them with :func:`conjunction`)."""
    return [ast.BinaryOp("=", ast.ColumnRef(c, left), ast.ColumnRef(c, right))
            for c in columns]


def null_safe_equalities(left: str, right: str,
                         columns: Sequence[str]) -> list[ast.Expr]:
    """``l.c = r.c OR (l.c IS NULL AND r.c IS NULL)`` per column: an
    equality join where NULL keys match each other.

    GROUP BY places all NULLs of a dimension into one group (Gray's
    data-cube semantics), so joining aggregate levels on plain ``=``
    silently drops NULL groups.  The engine's planner recognizes this
    exact pattern and keeps it a hash equi-join.
    """
    conditions: list[ast.Expr] = []
    for c in columns:
        l, r = ast.ColumnRef(c, left), ast.ColumnRef(c, right)
        conditions.append(ast.BinaryOp(
            "OR", ast.BinaryOp("=", l, r),
            ast.BinaryOp("AND", ast.IsNull(l), ast.IsNull(r))))
    return conditions


def feedback(db: Database, statement: ast.Statement) -> Table | int:
    """Run a statement at generation time -- the paper's feedback
    process: BY-value discovery, the optimizer's probes, the UPDATE
    strategy's global total, a materialized ``F`` -- and return its
    result.

    These go through the database's textual entry point, as the
    paper's generator sent them over JDBC, so a database that
    instruments ``execute`` sees every statement generation runs.
    They are a few hundred bytes each; the plan's own steps, which
    carry the wide statements, reach the engine as trees."""
    return db.execute(format_statement(statement))


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


def materialization_select(query: model.PercentageQuery) -> ast.Select:
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
    return select(cols(needed), source.from_, source.where)


def argument(term: model.AggregateTerm) -> ast.Expr:
    """The term's argument tree; ``*`` for ``count(*)``."""
    return STAR if term.argument is None else term.argument
