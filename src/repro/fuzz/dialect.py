"""Translate generated standard SQL into sqlite's dialect.

The oracle replays plan statements in stdlib ``sqlite3``.  The plans
are emitted by :mod:`repro.sql.formatter` and are almost-portable SQL;
two sqlite behaviors would silently change results, so each statement
is parsed back with :mod:`repro.sql.parser`, rewritten, and
re-formatted:

* ``x / y`` on two integers truncates in sqlite but is true division
  in the engine (and in the paper's Teradata SQL).  Every division's
  numerator is wrapped in ``CAST(... AS REAL)``.
* a single-column ``INTEGER PRIMARY KEY`` is an alias for sqlite's
  rowid, which silently rewrites inserted NULLs into fresh row numbers
  -- catastrophic for NULL-group testing.  ``PRIMARY KEY`` clauses are
  dropped entirely; they only declare intent in the engine too.

Type names (INT/REAL/VARCHAR/BOOLEAN) pass through: sqlite's type
affinity maps them correctly.  Known remaining dialect gaps are
declared in :data:`UNSUPPORTED_FUNCS`; the fuzz generator never emits
them (sqlite has no ``var``/``stdev``) and the oracle refuses them
loudly rather than diverging quietly.
"""

from __future__ import annotations

from dataclasses import replace

from repro.sql import ast
from repro.sql.formatter import format_statement
from repro.sql.parser import parse_statement

#: aggregate names the engine knows but sqlite does not provide.
UNSUPPORTED_FUNCS = frozenset({"var", "stdev"})


class DialectError(Exception):
    """The statement cannot be expressed in sqlite faithfully."""


def to_sqlite(sql: str) -> str:
    """Rewrite one formatted statement for sqlite."""
    return format_statement(rewrite_statement(parse_statement(sql)))


# ----------------------------------------------------------------------
# Statement rewriting
# ----------------------------------------------------------------------
def rewrite_statement(statement: ast.Statement) -> ast.Statement:
    if isinstance(statement, ast.Select):
        return _rewrite_select(statement)
    if isinstance(statement, ast.CreateTable):
        return replace(statement, primary_key=())
    if isinstance(statement, ast.CreateTableAs):
        return replace(statement, select=_rewrite_select(statement.select))
    if isinstance(statement, ast.InsertSelect):
        return replace(statement, select=_rewrite_select(statement.select))
    if isinstance(statement, ast.InsertValues):
        rows = tuple(tuple(_rewrite_expr(v) for v in row)
                     for row in statement.rows)
        return replace(statement, rows=rows)
    if isinstance(statement, ast.Update):
        assignments = tuple(
            replace(a, value=_rewrite_expr(a.value))
            for a in statement.assignments)
        where = _rewrite_optional(statement.where)
        return replace(statement, assignments=assignments, where=where)
    if isinstance(statement, ast.Delete):
        return replace(statement, where=_rewrite_optional(statement.where))
    if isinstance(statement, (ast.DropTable, ast.CreateIndex,
                              ast.DropIndex)):
        return statement
    raise DialectError(f"no sqlite rendering for {type(statement).__name__}")


def _rewrite_select(select: ast.Select) -> ast.Select:
    items = tuple(replace(i, expr=_rewrite_expr(i.expr))
                  for i in select.items)
    from_ = _rewrite_from(select.from_)
    group_by = tuple(_rewrite_expr(e) for e in select.group_by)
    order_by = tuple(replace(o, expr=_rewrite_expr(o.expr))
                     for o in select.order_by)
    return replace(select, items=items, from_=from_,
                   where=_rewrite_optional(select.where),
                   group_by=group_by,
                   having=_rewrite_optional(select.having),
                   order_by=order_by)


def _rewrite_from(from_):
    if from_ is None:
        return None
    joins = tuple(
        replace(j, source=_rewrite_source(j.source),
                on=_rewrite_optional(j.on))
        for j in from_.joins)
    return replace(from_, first=_rewrite_source(from_.first),
                   joins=joins)


def _rewrite_source(source: ast.FromSource) -> ast.FromSource:
    if isinstance(source, ast.SubquerySource):
        return replace(source, select=_rewrite_select(source.select))
    return source


# ----------------------------------------------------------------------
# Expression rewriting
# ----------------------------------------------------------------------
def _rewrite_optional(expr):
    return None if expr is None else _rewrite_expr(expr)


def _rewrite_expr(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, (ast.Literal, ast.ColumnRef, ast.Star)):
        return expr
    if isinstance(expr, ast.UnaryOp):
        return replace(expr, operand=_rewrite_expr(expr.operand))
    if isinstance(expr, ast.BinaryOp):
        left = _rewrite_expr(expr.left)
        right = _rewrite_expr(expr.right)
        if expr.op == "/":
            left = ast.Cast(operand=left, type_name="REAL")
        return replace(expr, left=left, right=right)
    if isinstance(expr, ast.IsNull):
        return replace(expr, operand=_rewrite_expr(expr.operand))
    if isinstance(expr, ast.InList):
        return replace(expr, operand=_rewrite_expr(expr.operand),
                       items=tuple(_rewrite_expr(i) for i in expr.items))
    if isinstance(expr, ast.CaseWhen):
        whens = tuple((_rewrite_expr(c), _rewrite_expr(r))
                      for c, r in expr.whens)
        return replace(expr, whens=whens,
                       else_=_rewrite_optional(expr.else_))
    if isinstance(expr, ast.Cast):
        return replace(expr, operand=_rewrite_expr(expr.operand))
    if isinstance(expr, (ast.Cube, ast.Rollup, ast.GroupingSets)):
        raise DialectError(
            "sqlite has no CUBE/ROLLUP/GROUPING SETS; expand with "
            "cube_to_union_sql() first")
    if isinstance(expr, ast.FuncCall):
        if expr.name in UNSUPPORTED_FUNCS:
            raise DialectError(f"sqlite has no {expr.name}() aggregate")
        if expr.name in ast.GROUPING_SET_FUNCS:
            raise DialectError(
                f"sqlite has no {expr.name}(); expand with "
                f"cube_to_union_sql() first")
        if expr.by_columns or expr.default is not None:
            raise DialectError(
                "extended BY/DEFAULT syntax must be rewritten by the "
                "code generator before the oracle can run it")
        args = tuple(_rewrite_expr(a) for a in expr.args)
        over = expr.over
        if over is not None:
            over = replace(over, partition_by=tuple(
                _rewrite_expr(e) for e in over.partition_by))
        return replace(expr, args=args, over=over)
    raise DialectError(f"no sqlite rendering for {type(expr).__name__}")


# ----------------------------------------------------------------------
# Grouping-sets oracle: UNION ALL expansion
# ----------------------------------------------------------------------
def cube_to_union_sql(sql: str) -> str:
    """Rewrite a CUBE/ROLLUP/GROUPING SETS query as the UNION ALL of
    its per-set plain group-bys, in sqlite dialect.

    This is the differential oracle for the engine's shared-scan
    evaluation: sqlite computes every set independently, so any
    group-derivation bug in the engine diverges from it.  Per set, dim
    columns missing from the set project as NULL literals and
    ``grouping()`` calls become their constant bitmask.  The rewrite is
    syntactic (dims keyed by formatted text), which covers everything
    the fuzz generator emits; anything fancier raises DialectError.
    """
    from repro.engine.groupingsets import expand_group_by
    from repro.sql.formatter import format_expr

    statement = parse_statement(sql)
    if not isinstance(statement, ast.Select) \
            or not ast.has_grouping_sets(statement):
        raise DialectError("not a grouping-sets query")
    if statement.distinct or statement.order_by \
            or statement.limit is not None \
            or statement.having is not None:
        raise DialectError("cube oracle covers plain grouping-sets "
                           "queries only")
    raw_sets = expand_group_by(statement.group_by, lambda e: e)

    dim_keys: list[str] = []
    set_keys: list[list[str]] = []
    for raw in raw_sets:
        keys: list[str] = []
        for expr in raw:
            key = format_expr(expr)
            if key not in dim_keys:
                dim_keys.append(key)
            if key not in keys:
                keys.append(key)
        set_keys.append(sorted(keys, key=dim_keys.index))

    expr_of = {}
    for raw in raw_sets:
        for expr in raw:
            expr_of.setdefault(format_expr(expr), expr)

    pieces = []
    for keys in set_keys:
        present = set(keys)

        def subst(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.FuncCall) \
                    and node.name == "grouping":
                mask = 0
                for j, arg in enumerate(node.args):
                    if format_expr(arg) not in present:
                        mask |= 1 << (len(node.args) - 1 - j)
                return ast.Literal(mask)
            if isinstance(node, ast.FuncCall) \
                    and node.name in ast.AGGREGATE_NAMES:
                return node
            key = format_expr(node)
            if key in dim_keys:
                return node if key in present else ast.Literal(None)
            # composite items (e.g. sum(a) / count(*)): substitute in
            # the children; only a bare non-dim leaf is unprojectable.
            if isinstance(node, ast.Literal):
                return node
            if isinstance(node, ast.UnaryOp):
                return replace(node, operand=subst(node.operand))
            if isinstance(node, ast.BinaryOp):
                return replace(node, left=subst(node.left),
                               right=subst(node.right))
            if isinstance(node, ast.IsNull):
                return replace(node, operand=subst(node.operand))
            if isinstance(node, ast.Cast):
                return replace(node, operand=subst(node.operand))
            if isinstance(node, ast.CaseWhen):
                whens = tuple((subst(c), subst(r))
                              for c, r in node.whens)
                else_ = subst(node.else_) if node.else_ is not None \
                    else None
                return replace(node, whens=whens, else_=else_)
            raise DialectError(
                f"cube oracle cannot project {key} per set")

        items = tuple(replace(i, expr=subst(i.expr))
                      for i in statement.items)
        piece = replace(statement, items=items,
                        group_by=tuple(expr_of[k] for k in keys))
        pieces.append(format_statement(_rewrite_select(piece)))
    return " UNION ALL ".join(pieces)
