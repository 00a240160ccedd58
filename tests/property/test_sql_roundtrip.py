"""Property-based round-trip tests: format(parse(format(ast))) is
stable and parsing the formatted text reproduces the same AST."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast
from repro.sql.formatter import format_expr, format_statement
from repro.sql.parser import parse_expression, parse_statement

IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s.upper() not in {
        "AND", "OR", "NOT", "IN", "IS", "NULL", "CASE", "WHEN", "THEN",
        "ELSE", "END", "AS", "BY", "ON", "SELECT", "FROM", "WHERE",
        "GROUP", "HAVING", "ORDER", "LIMIT", "TRUE", "FALSE", "BETWEEN",
        "CAST", "OVER", "DEFAULT", "DISTINCT", "JOIN", "LEFT", "INNER",
        "OUTER", "SET", "VALUES", "KEY", "INTO", "ABS", "SUM", "COUNT",
        "MIN", "MAX", "AVG", "ROUND", "FLOOR", "CEIL", "COALESCE",
        "NULLIF", "VPCT", "HPCT", "LIKE", "ALL", "IF", "EXISTS",
        "TABLE", "INDEX", "CREATE", "DROP", "INSERT", "UPDATE",
        "DELETE", "PRIMARY", "ASC", "DESC", "UNION", "LIMIT"})

LITERALS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\n\r"),
            max_size=12),
).map(ast.Literal)

COLUMNS = st.one_of(
    IDENT.map(ast.ColumnRef),
    st.tuples(IDENT, IDENT).map(
        lambda pair: ast.ColumnRef(pair[0], table=pair[1])))


def expressions(depth=3):
    if depth == 0:
        return st.one_of(LITERALS, COLUMNS)
    sub = expressions(depth - 1)
    return st.one_of(
        LITERALS,
        COLUMNS,
        st.tuples(st.sampled_from(["+", "-", "*", "/", "=", "<>", "<",
                                   "<=", ">", ">=", "AND", "OR"]),
                  sub, sub).map(lambda t: ast.BinaryOp(*t)),
        st.tuples(st.sampled_from(["-", "NOT"]), sub).map(
            lambda t: ast.UnaryOp(*t)),
        st.tuples(sub, st.booleans()).map(
            lambda t: ast.IsNull(*t)),
        st.tuples(sub, st.lists(LITERALS, min_size=1, max_size=3),
                  st.booleans()).map(
            lambda t: ast.InList(t[0], tuple(t[1]), t[2])),
        st.tuples(st.lists(st.tuples(sub, sub), min_size=1,
                           max_size=3),
                  st.one_of(st.none(), sub)).map(
            lambda t: ast.CaseWhen(tuple(t[0]), t[1])),
        st.tuples(st.sampled_from(["sum", "count", "min", "max",
                                   "avg"]), sub).map(
            lambda t: ast.FuncCall(t[0], (t[1],))),
    )


@given(expressions())
@settings(max_examples=120, deadline=None)
def test_expression_roundtrip(expr):
    rendered = format_expr(expr)
    reparsed = parse_expression(rendered)
    assert format_expr(reparsed) == rendered


@given(st.lists(st.tuples(COLUMNS, st.one_of(st.none(), IDENT)),
                min_size=1, max_size=4),
       IDENT,
       st.lists(COLUMNS, min_size=0, max_size=2))
@settings(max_examples=60, deadline=None)
def test_select_roundtrip(items, table, group_by):
    select = ast.Select(
        items=tuple(ast.SelectItem(e, a) for e, a in items),
        from_=ast.FromClause(ast.TableRef(table)),
        group_by=tuple(group_by))
    rendered = format_statement(select)
    reparsed = parse_statement(rendered)
    assert format_statement(reparsed) == rendered


@given(st.lists(st.tuples(IDENT, st.sampled_from(
    ["INT", "REAL", "VARCHAR"])), min_size=1, max_size=5,
    unique_by=lambda t: t[0]))
@settings(max_examples=60, deadline=None)
def test_create_table_roundtrip(columns):
    statement = ast.CreateTable(
        "t", tuple(ast.ColumnSpec((n,), tn) for n, tn in columns),
        primary_key=(columns[0][0],))
    rendered = format_statement(statement)
    reparsed = parse_statement(rendered)
    assert format_statement(reparsed) == rendered


@given(st.lists(LITERALS, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_insert_values_roundtrip(row):
    statement = ast.InsertValues("t", (tuple(row),))
    rendered = format_statement(statement)
    reparsed = parse_statement(rendered)
    assert format_statement(reparsed) == rendered
