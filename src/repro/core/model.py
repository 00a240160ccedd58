"""The percentage-query model: parsing the extended syntax into a
structured description.

A percentage query (Section 3 of the paper) is a SELECT over a fact
table ``F`` whose select list mixes

* dimension columns (which must be grouping columns),
* ``Vpct(A BY Dj+1, ..., Dk)`` vertical percentage terms,
* ``Hpct(A BY Dj+1, ..., Dk)`` horizontal percentage terms,
* generalized horizontal aggregates ``agg(A BY ... [DEFAULT d])``
  (the companion paper's ``Hagg``), and
* plain vertical aggregates (``sum(A)``, ``count(*)``, ...).

The model keeps the query in a normalized shape the code generators
consume; validation of the papers' usage rules lives in
:mod:`repro.core.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import PercentageQueryError
from repro.sql import ast
from repro.sql.formatter import format_expr
from repro.sql.parser import parse_statement


#: Term kinds.
VPCT = "vpct"
HPCT = "hpct"
HAGG = "hagg"          # standard aggregate with a BY clause
VERTICAL = "vertical"  # plain standard aggregate (no BY)


@dataclass
class AggregateTerm:
    """One aggregate item of the select list."""

    kind: str                       # VPCT | HPCT | HAGG | VERTICAL
    func: str                       # vpct/hpct or sum/count/avg/min/max
    argument: Optional[ast.Expr]    # A (None only for count(*))
    by_columns: tuple[str, ...]     # sub-grouping columns (lower-case)
    default: Optional[Any] = None   # DEFAULT literal value, if given
    distinct: bool = False
    alias: Optional[str] = None
    position: int = 0               # index within the select list

    @property
    def is_horizontal(self) -> bool:
        return self.kind in (HPCT, HAGG)

    def argument_sql(self) -> str:
        if self.argument is None:
            return "*"
        return format_expr(self.argument)

    def label(self) -> str:
        """A short human-readable label for naming result columns."""
        if self.alias:
            return self.alias
        if self.argument is None:
            return f"{self.func}_star"
        arg = format_expr(self.argument, full_parens=True) \
            .replace(" ", "")
        safe = "".join(ch if ch.isalnum() else "_" for ch in arg)
        return f"{self.func}_{safe}" if self.kind != VPCT else safe


@dataclass
class PercentageQuery:
    """A normalized percentage query.

    Attributes:
        table: the fact table ``F`` (after view materialization, when
            the original FROM clause joined several tables).
        group_by: the GROUP BY columns, lower-cased, in query order.
        dimensions: the plain dimension columns of the select list (in
            order), each of which must be a grouping column.
        terms: the aggregate terms, in select-list order.
        where: an optional pass-through filter on ``F``.
        source_select: the original FROM/WHERE select when ``F`` must
            be materialized from a join first (None for plain tables).
        sql: the original statement text, for diagnostics.
        select: the user's SELECT as parsed (None for a query the
            library built itself, e.g. a shared-summary rewrite).
    """

    table: str
    group_by: tuple[str, ...]
    dimensions: tuple[str, ...]
    terms: list[AggregateTerm]
    where: Optional[ast.Expr] = None
    source_select: Optional[ast.Select] = None
    sql: str = ""
    select: Optional[ast.Select] = None

    # Convenience accessors ------------------------------------------------
    def vertical_pct_terms(self) -> list[AggregateTerm]:
        return [t for t in self.terms if t.kind == VPCT]

    def horizontal_terms(self) -> list[AggregateTerm]:
        return [t for t in self.terms if t.is_horizontal]

    def plain_terms(self) -> list[AggregateTerm]:
        return [t for t in self.terms if t.kind == VERTICAL]

    @property
    def has_vertical_pct(self) -> bool:
        return any(t.kind == VPCT for t in self.terms)

    @property
    def has_horizontal(self) -> bool:
        return any(t.is_horizontal for t in self.terms)


def parse_percentage_query(sql: str) -> PercentageQuery:
    """Parse extended-syntax SQL into a :class:`PercentageQuery`.

    Raises :class:`PercentageQueryError` when the statement is not a
    percentage query or violates structural expectations; the usage
    rules proper are checked by :func:`repro.core.validate.validate`.
    """
    try:
        statement = parse_statement(sql)
    except Exception as exc:
        raise PercentageQueryError(f"cannot parse query: {exc}") from exc
    if not isinstance(statement, ast.Select):
        raise PercentageQueryError("a percentage query must be a SELECT")
    return build_percentage_query(statement, sql)


def build_percentage_query(select: ast.Select,
                           sql: str = "") -> PercentageQuery:
    """Build the model from a parsed SELECT."""
    if select.from_ is None:
        raise PercentageQueryError(
            "a percentage query requires a FROM clause")
    if select.distinct:
        raise PercentageQueryError(
            "DISTINCT cannot be combined with percentage aggregations")
    if select.having is not None or select.order_by or \
            select.limit is not None:
        raise PercentageQueryError(
            "HAVING/ORDER BY/LIMIT are not supported in percentage "
            "queries; apply them to the result table")

    table, source_select, where = _resolve_source(select)
    group_by = _resolve_group_by(select)

    dimensions: list[str] = []
    terms: list[AggregateTerm] = []
    for position, item in enumerate(select.items):
        expr = item.expr
        if isinstance(expr, ast.ColumnRef):
            dimensions.append(expr.name.lower())
            continue
        if isinstance(expr, ast.FuncCall):
            terms.append(_build_term(expr, item.alias, position))
            continue
        raise PercentageQueryError(
            f"select item {format_expr(expr)!r} must be a grouping "
            f"column or an aggregate call")
    if not terms:
        raise PercentageQueryError(
            "a percentage query needs at least one aggregate term")
    return PercentageQuery(table=table, group_by=group_by,
                           dimensions=tuple(dimensions), terms=terms,
                           where=where, source_select=source_select,
                           sql=sql, select=select)


def _resolve_source(select: ast.Select
                    ) -> tuple[str, Optional[ast.Select], Optional[ast.Expr]]:
    """F is either a plain table (WHERE passed through) or a join that
    the generator must materialize first (DMKD Section 2: "F represents
    a temporary table or a view based on some complex SQL query")."""
    from_ = select.from_
    if not from_.joins and isinstance(from_.first, ast.TableRef):
        return from_.first.name, None, select.where
    # Multi-source FROM: keep the whole SELECT shell for the
    # materialization step (the generator projects the needed columns).
    return "", select, None


def _resolve_group_by(select: ast.Select) -> tuple[str, ...]:
    columns: list[str] = []
    for expr in select.group_by:
        if isinstance(expr, ast.ColumnRef):
            columns.append(expr.name.lower())
        elif isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(select.items):
                raise PercentageQueryError(
                    f"GROUP BY position {position} is out of range")
            target = select.items[position - 1].expr
            if not isinstance(target, ast.ColumnRef):
                raise PercentageQueryError(
                    f"GROUP BY position {position} must refer to a "
                    f"dimension column")
            columns.append(target.name.lower())
        else:
            raise PercentageQueryError(
                "GROUP BY must list dimension columns (or positions)")
    return tuple(columns)


def _build_term(call: ast.FuncCall, alias: Optional[str],
                position: int) -> AggregateTerm:
    by_columns = tuple(c.name.lower() for c in call.by_columns)
    default = None
    if call.default is not None:
        if not isinstance(call.default, ast.Literal):
            raise PercentageQueryError(
                "DEFAULT must be a literal value")
        default = call.default.value

    if call.name in ("vpct", "hpct"):
        if len(call.args) != 1 or isinstance(call.args[0], ast.Star):
            raise PercentageQueryError(
                f"{call.name}() requires exactly one expression "
                f"argument")
        if call.distinct:
            raise PercentageQueryError(
                f"{call.name}() does not accept DISTINCT")
        kind = VPCT if call.name == "vpct" else HPCT
        return AggregateTerm(kind=kind, func=call.name,
                             argument=call.args[0],
                             by_columns=by_columns, default=default,
                             alias=alias, position=position)

    if call.name not in ast.AGGREGATE_NAMES:
        raise PercentageQueryError(
            f"unknown aggregate function {call.name}() in a "
            f"percentage query")
    argument: Optional[ast.Expr]
    if call.args and isinstance(call.args[0], ast.Star):
        if call.name != "count":
            raise PercentageQueryError(
                f"{call.name}(*) is not valid; only count(*)")
        argument = None
    elif len(call.args) == 1:
        argument = call.args[0]
    else:
        raise PercentageQueryError(
            f"{call.name}() takes exactly one argument")
    kind = HAGG if by_columns else VERTICAL
    return AggregateTerm(kind=kind, func=call.name, argument=argument,
                         by_columns=by_columns, default=default,
                         distinct=call.distinct, alias=alias,
                         position=position)
