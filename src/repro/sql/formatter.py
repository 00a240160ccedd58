"""Render AST nodes back to SQL text.

The percentage-query code generator builds statement ASTs and hands
them to the engine as trees; this module prints the standard SQL the
paper's Java program would have sent over JDBC, when something reads
it (a trace, the statement history, ``EXPLAIN``, a plan's script).
The output is deterministic and re-parseable by
:mod:`repro.sql.parser` (round-trip property, tested), with as few
parentheses as the grammar allows -- plus one kept for the reader: an
``AND`` inside an ``OR``.
"""

from __future__ import annotations

import math

from repro.sql import ast


def format_statement(statement: ast.Statement) -> str:
    """One statement as SQL text (no trailing semicolon)."""
    if isinstance(statement, ast.Select):
        return format_select(statement)
    if isinstance(statement, ast.CreateTable):
        return _format_create_table(statement)
    if isinstance(statement, ast.CreateTableAs):
        return (f"CREATE TABLE {quote_ident(statement.name)} AS "
                f"{format_select(statement.select)}")
    if isinstance(statement, ast.DropTable):
        clause = "IF EXISTS " if statement.if_exists else ""
        return f"DROP TABLE {clause}{quote_ident(statement.name)}"
    if isinstance(statement, ast.CreateIndex):
        columns = ", ".join(quote_ident(c) for c in statement.columns)
        return (f"CREATE INDEX {quote_ident(statement.name)} ON "
                f"{quote_ident(statement.table)} ({columns})")
    if isinstance(statement, ast.DropIndex):
        clause = "IF EXISTS " if statement.if_exists else ""
        return f"DROP INDEX {clause}{quote_ident(statement.name)}"
    if isinstance(statement, ast.InsertValues):
        return _format_insert_values(statement)
    if isinstance(statement, ast.InsertSelect):
        columns = ""
        if statement.columns:
            columns = " (" + ", ".join(quote_ident(c)
                                       for c in statement.columns) + ")"
        return (f"INSERT INTO {quote_ident(statement.table)}{columns} "
                f"{format_select(statement.select)}")
    if isinstance(statement, ast.Update):
        return _format_update(statement)
    if isinstance(statement, ast.Delete):
        where = f" WHERE {format_expr(statement.where)}" \
            if statement.where is not None else ""
        return f"DELETE FROM {_format_table_ref(statement.table)}{where}"
    if isinstance(statement, ast.CreateView):
        return (f"CREATE VIEW {quote_ident(statement.name)} AS "
                f"{format_select(statement.select)}")
    if isinstance(statement, ast.DropView):
        clause = "IF EXISTS " if statement.if_exists else ""
        return f"DROP VIEW {clause}{quote_ident(statement.name)}"
    if isinstance(statement, ast.CreateMaterializedView):
        return (f"CREATE MATERIALIZED VIEW {quote_ident(statement.name)}"
                f" AS {format_select(statement.select)}")
    if isinstance(statement, ast.DropMaterializedView):
        clause = "IF EXISTS " if statement.if_exists else ""
        return (f"DROP MATERIALIZED VIEW {clause}"
                f"{quote_ident(statement.name)}")
    if isinstance(statement, ast.RefreshMaterializedView):
        return (f"REFRESH MATERIALIZED VIEW "
                f"{quote_ident(statement.name)}")
    if isinstance(statement, ast.Explain):
        keyword = "EXPLAIN ANALYZE" if statement.analyze else "EXPLAIN"
        return f"{keyword} {format_statement(statement.statement)}"
    raise TypeError(f"cannot format statement {statement!r}")


def format_script(statements: list[ast.Statement]) -> str:
    """Statements joined with ';' lines."""
    return ";\n".join(format_statement(s) for s in statements) + ";"


# ----------------------------------------------------------------------
def format_select(select: ast.Select) -> str:
    parts = ["SELECT"]
    if select.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_format_select_item(i) for i in select.items))
    if select.from_ is not None:
        parts.append("FROM " + _format_from(select.from_))
    if select.where is not None:
        parts.append("WHERE " + format_expr(select.where))
    if select.group_by:
        parts.append("GROUP BY "
                     + ", ".join(format_expr(e) for e in select.group_by))
    if select.having is not None:
        parts.append("HAVING " + format_expr(select.having))
    if select.order_by:
        rendered = []
        for item in select.order_by:
            suffix = "" if item.ascending else " DESC"
            rendered.append(format_expr(item.expr) + suffix)
        parts.append("ORDER BY " + ", ".join(rendered))
    if select.limit is not None:
        parts.append(f"LIMIT {select.limit}")
    return " ".join(parts)


def _format_select_item(item) -> str:
    if isinstance(item, ast.CellFamily):
        return _format_family(item)
    rendered = format_expr(item.expr)
    if item.alias:
        return f"{rendered} AS {quote_ident(item.alias)}"
    return rendered


def _format_family(family: ast.CellFamily) -> str:
    """The items a family stands for, as their own trees print."""
    return ", ".join(format_expr(family.cell(i))
                     for i in range(len(family)))


def _format_from(from_: ast.FromClause) -> str:
    parts = [_format_source(from_.first)]
    for join in from_.joins:
        if join.kind == "cross":
            parts.append(", " + _format_source(join.source))
        else:
            keyword = "JOIN" if join.kind == "inner" else "LEFT OUTER JOIN"
            parts.append(f" {keyword} {_format_source(join.source)} "
                         f"ON {format_expr(join.on)}")
    return "".join(parts)


def _format_source(source: ast.FromSource) -> str:
    if isinstance(source, ast.TableRef):
        return _format_table_ref(source)
    return f"({format_select(source.select)}) {quote_ident(source.alias)}"


def _format_table_ref(ref: ast.TableRef) -> str:
    if ref.alias:
        return f"{quote_ident(ref.name)} {quote_ident(ref.alias)}"
    return quote_ident(ref.name)


def _format_create_table(statement: ast.CreateTable) -> str:
    """The key follows the column list, Teradata style, as the paper's
    generated code writes it."""
    columns = ", ".join(f"{quote_ident(c.name)} {c.type_name}"
                        for c in statement.columns)
    exists = "IF NOT EXISTS " if statement.if_not_exists else ""
    text = f"CREATE TABLE {exists}{quote_ident(statement.name)} ({columns})"
    if statement.primary_key:
        keys = ", ".join(quote_ident(c) for c in statement.primary_key)
        text += f" PRIMARY KEY ({keys})"
    return text


def _format_insert_values(statement: ast.InsertValues) -> str:
    columns = ""
    if statement.columns:
        columns = " (" + ", ".join(quote_ident(c)
                                   for c in statement.columns) + ")"
    rows = ", ".join(
        "(" + ", ".join(format_expr(v) for v in row) + ")"
        for row in statement.rows)
    return (f"INSERT INTO {quote_ident(statement.table)}{columns} "
            f"VALUES {rows}")


def _format_update(statement: ast.Update) -> str:
    assignments = ", ".join(
        f"{quote_ident(a.column)} = {format_expr(a.value)}"
        for a in statement.assignments)
    text = (f"UPDATE {_format_table_ref(statement.table)} "
            f"SET {assignments}")
    if statement.from_tables:
        text += " FROM " + ", ".join(_format_table_ref(t)
                                     for t in statement.from_tables)
    if statement.where is not None:
        text += f" WHERE {format_expr(statement.where)}"
    return text


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
def format_expr(expr: ast.Expr, full_parens: bool = False) -> str:
    """``expr`` as SQL text, with as few parentheses as the grammar
    allows.  ``full_parens`` parenthesizes every compound operand
    instead, whatever the binding powers: the spelling result-column
    labels are derived from, so that they do not move when the rules
    for the fewest parentheses do."""
    fp = full_parens
    if isinstance(expr, ast.Literal):
        return format_literal(expr.value)
    if isinstance(expr, ast.ColumnRef):
        if expr.table:
            return f"{quote_ident(expr.table)}.{quote_ident(expr.name)}"
        return quote_ident(expr.name)
    if isinstance(expr, ast.Star):
        return f"{quote_ident(expr.table)}.*" if expr.table else "*"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return "NOT " + _operand(expr.operand, _NOT, "", fp)
        # Always parenthesize the operand: "-(-1)" would otherwise
        # render as "--1" (a comment), and "-0" would re-parse as the
        # folded literal 0.
        return f"-({format_expr(expr.operand, fp)})"
    if isinstance(expr, ast.BinaryOp):
        power = _BINARY_POWER[expr.op]
        # Left-associative: a left operand of equal power needs no
        # parentheses, a right one does; comparisons do not associate.
        left = power + 1 if power == _COMPARE else power
        return (f"{_operand(expr.left, left, expr.op, fp)} {expr.op} "
                f"{_operand(expr.right, power + 1, expr.op, fp)}")
    if isinstance(expr, ast.IsNull):
        negation = "NOT " if expr.negated else ""
        return f"{_operand(expr.operand, _ADD, '', fp)} IS {negation}NULL"
    if isinstance(expr, ast.InList):
        items = ", ".join(format_expr(i, fp) for i in expr.items)
        negation = "NOT " if expr.negated else ""
        return (f"{_operand(expr.operand, _ADD, '', fp)} "
                f"{negation}IN ({items})")
    if isinstance(expr, ast.CaseWhen):
        parts = ["CASE"]
        for condition, result in expr.whens:
            parts.append(f"WHEN {format_expr(condition, fp)} "
                         f"THEN {format_expr(result, fp)}")
        if expr.else_ is not None:
            parts.append(f"ELSE {format_expr(expr.else_, fp)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, ast.Cast):
        return f"CAST({format_expr(expr.operand, fp)} AS {expr.type_name})"
    if isinstance(expr, ast.FuncCall):
        return _format_func(expr, fp)
    if isinstance(expr, ast.Cube):
        columns = ", ".join(format_expr(e, fp) for e in expr.exprs)
        return f"CUBE ({columns})"
    if isinstance(expr, ast.Rollup):
        columns = ", ".join(format_expr(e, fp) for e in expr.exprs)
        return f"ROLLUP ({columns})"
    if isinstance(expr, ast.GroupingSets):
        sets = ", ".join(
            "(" + ", ".join(format_expr(e, fp) for e in gset) + ")"
            for gset in expr.sets)
        return f"GROUPING SETS ({sets})"
    raise TypeError(f"cannot format expression {expr!r}")


def _format_func(expr: ast.FuncCall, fp: bool) -> str:
    inner = []
    if expr.distinct:
        inner.append("DISTINCT")
    inner.append(", ".join(format_expr(a, fp) for a in expr.args))
    if expr.by_columns:
        inner.append("BY " + ", ".join(format_expr(c, fp)
                                       for c in expr.by_columns))
    if expr.default is not None:
        inner.append("DEFAULT " + format_expr(expr.default, fp))
    rendered = f"{expr.name}({' '.join(p for p in inner if p)})"
    if expr.over is not None:
        if expr.over.partition_by:
            partition = ", ".join(format_expr(e, fp)
                                  for e in expr.over.partition_by)
            rendered += f" OVER (PARTITION BY {partition})"
        else:
            rendered += " OVER ()"
    return rendered


#: Binding powers, loosest first -- the parser's levels.  A prefix NOT
#: binds a comparison; unary minus prints as ``-(x)``, which binds
#: tighter than any infix operator.
_OR, _AND, _NOT, _COMPARE, _ADD, _MUL, _PRIMARY = range(1, 8)

_BINARY_POWER = {"OR": _OR, "AND": _AND,
                 "=": _COMPARE, "<>": _COMPARE, "<": _COMPARE,
                 "<=": _COMPARE, ">": _COMPARE, ">=": _COMPARE,
                 "+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL}


#: What ``full_parens`` parenthesizes as an operand.
_COMPOUND = (ast.BinaryOp, ast.UnaryOp, ast.IsNull, ast.InList)


def _power(expr: ast.Expr) -> int:
    kind = type(expr)
    if kind is ast.BinaryOp:
        return _BINARY_POWER[expr.op]
    if kind is ast.UnaryOp:
        return _NOT if expr.op == "NOT" else _PRIMARY
    if kind is ast.IsNull or kind is ast.InList:
        return _COMPARE
    return _PRIMARY


def _operand(expr: ast.Expr, minimum: int, parent: str,
             full_parens: bool) -> str:
    """``expr`` in a slot that binds at least as tightly as
    ``minimum``: parenthesized when it binds looser, and -- for the
    reader, not the parser -- when it is an AND inside an OR.  With
    ``full_parens``, parenthesized whenever it is compound."""
    text = format_expr(expr, full_parens)
    power = _power(expr)
    if power < minimum or (power == _AND and parent == "OR") \
            or (full_parens and isinstance(expr, _COMPOUND)):
        return f"({text})"
    return text


_IDENT_SAFE = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$")

_RESERVED = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "AND",
    "OR", "NOT", "NULL", "CASE", "WHEN", "THEN", "ELSE", "END", "JOIN",
    "LEFT", "INNER", "OUTER", "ON", "AS", "INSERT", "INTO", "VALUES",
    "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "INDEX", "DROP",
    "PRIMARY", "KEY", "DISTINCT", "DEFAULT", "OVER", "PARTITION",
    "BETWEEN", "IN", "IS", "LIMIT", "CAST", "TRUE", "FALSE", "UNION"})


def quote_ident(name: str) -> str:
    """Quote an identifier when it is not a plain safe name."""
    if (name and name[0].isalpha() or name.startswith("_")) \
            and all(ch in _IDENT_SAFE for ch in name) \
            and name.upper() not in _RESERVED:
        return name
    return '"' + name.replace('"', '""') + '"'


def format_literal(value) -> str:
    """A Python value as a SQL literal -- the one printer the formatter
    and the DB-API's parameter binding share.

    Infinities print as ``1e999`` / ``-1e999``, which the lexer reads
    back as infinite floats.  Two values have no text that reads back:
    NaN (SQL has no NaN literal) and a string holding a newline (the
    lexer refuses a newline inside a string literal).  Their trees
    still run -- the code generator hands the engine trees, not this
    text."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        if value in (math.inf, -math.inf):
            return "1e999" if value > 0 else "-1e999"
        return repr(float(value))
    return str(value)
