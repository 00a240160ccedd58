"""Operator precedence, checked through text with as few parentheses as
the grammar allows.

A test-local printer renders random expression trees with a
parenthesis only where the binding powers demand one, and parsing the
text must give the tree back.  The formatter prints by the same rules
(plus parentheses around an AND inside an OR, for the reader), so the
same trees run through ``format_expr`` too."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.formatter import format_expr
from repro.sql.parser import parse_expression

#: Binding power of each printed form, loosest first; a child binding
#: looser than its slot requires is parenthesized.
_POWER = {"OR": 1, "AND": 2, "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4,
          ">=": 4, "+": 5, "-": 5, "*": 6, "/": 6}
_NOT, _COMPARE, _UNARY, _PRIMARY = 3, 4, 7, 8


def power(expr):
    if isinstance(expr, ast.BinaryOp):
        return _POWER[expr.op]
    if isinstance(expr, ast.UnaryOp):
        return _NOT if expr.op == "NOT" else _UNARY
    if isinstance(expr, (ast.IsNull, ast.InList)):
        return _COMPARE
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
            and expr.value < 0:
        return _UNARY  # printed "-3", read back through the minus fold
    return _PRIMARY


def slot(expr, minimum):
    text = render(expr)
    return text if power(expr) >= minimum else f"({text})"


def render(expr):
    """Minimal-parenthesis SQL for ``expr``."""
    if isinstance(expr, ast.Literal):
        return "NULL" if expr.value is None else str(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.BinaryOp):
        p = _POWER[expr.op]
        # Comparisons do not associate: both sides must bind tighter.
        left = p + 1 if p == _COMPARE else p
        return f"{slot(expr.left, left)} {expr.op} {slot(expr.right, p + 1)}"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"NOT {slot(expr.operand, _NOT)}"
        operand = expr.operand
        if isinstance(operand, ast.Literal) and power(operand) == _PRIMARY:
            return f"-({render(operand)})"  # "-3" would fold to Literal(-3)
        return f"- {slot(operand, _UNARY)}"
    if isinstance(expr, ast.IsNull):
        negation = "NOT " if expr.negated else ""
        return f"{slot(expr.operand, _COMPARE + 1)} IS {negation}NULL"
    if isinstance(expr, ast.InList):
        negation = "NOT " if expr.negated else ""
        items = ", ".join(render(i) for i in expr.items)
        return f"{slot(expr.operand, _COMPARE + 1)} {negation}IN ({items})"
    if isinstance(expr, ast.FuncCall):
        return f"{expr.name}({', '.join(render(a) for a in expr.args)})"
    raise TypeError(expr)


_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s.upper() not in {
        "AND", "OR", "NOT", "IN", "IS", "NULL", "CASE", "CAST", "TRUE",
        "FALSE", "BETWEEN", "WHEN", "THEN", "ELSE", "END", "FROM", "AS",
        "BY", "ON", "SET", "JOIN", "LEFT", "INNER", "OUTER", "FULL",
        "RIGHT", "UNION", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT",
        "VALUES", "DEFAULT", "OVER", "PRIMARY"})

_LEAVES = st.one_of(
    _NAMES.map(ast.ColumnRef),
    st.integers(min_value=-99, max_value=99).map(ast.Literal),
    st.just(ast.Literal(None)))


def _trees(children):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(_POWER)), children, children).map(
            lambda t: ast.BinaryOp(*t)),
        st.tuples(st.sampled_from(["NOT", "-"]), children).map(
            lambda t: ast.UnaryOp(*t)),
        st.tuples(children, st.booleans()).map(lambda t: ast.IsNull(*t)),
        st.tuples(children, st.lists(children, min_size=1, max_size=3),
                  st.booleans()).map(
            lambda t: ast.InList(t[0], tuple(t[1]), t[2])),
        st.tuples(st.sampled_from(["sum", "abs"]), children).map(
            lambda t: ast.FuncCall(t[0], (t[1],))))


_EXPRESSIONS = st.recursive(_LEAVES, _trees, max_leaves=12)


@given(_EXPRESSIONS)
@settings(max_examples=600, deadline=None)
def test_minimal_parentheses_parse_back(expr):
    assert parse_expression(render(expr)) == expr


def col(name):
    return ast.ColumnRef(name)


def lit(value):
    return ast.Literal(value)


@pytest.mark.parametrize("text, tree", [
    ("NOT a = b AND c",
     ast.BinaryOp("AND", ast.UnaryOp("NOT", ast.BinaryOp(
         "=", col("a"), col("b"))), col("c"))),
    ("a - b - c",
     ast.BinaryOp("-", ast.BinaryOp("-", col("a"), col("b")), col("c"))),
    ("a + b * c",
     ast.BinaryOp("+", col("a"), ast.BinaryOp("*", col("b"), col("c")))),
    ("x NOT BETWEEN 1 AND 2 OR y",
     ast.BinaryOp("OR", ast.UnaryOp("NOT", ast.BinaryOp(
         "AND", ast.BinaryOp(">=", col("x"), lit(1)),
         ast.BinaryOp("<=", col("x"), lit(2)))), col("y"))),
    ("- -1", ast.UnaryOp("-", lit(-1))),
    ("-3", lit(-3)),
    ("dept = 1 AND monthno = 1",
     ast.BinaryOp("AND", ast.BinaryOp("=", col("dept"), lit(1)),
                  ast.BinaryOp("=", col("monthno"), lit(1)))),
])
def test_pinned_precedence(text, tree):
    assert parse_expression(text) == tree
    assert parse_expression(render(tree)) == tree


@pytest.mark.parametrize("text, column", [
    ("a = b = c", 7),
    ("a IS NULL = b", 11),
])
def test_comparisons_do_not_associate(text, column):
    with pytest.raises(SQLSyntaxError) as err:
        parse_expression(text)
    assert str(err.value).startswith("unexpected trailing input: '='")
    assert (err.value.line, err.value.column) == (1, column)


def _and(left, right):
    return ast.BinaryOp("AND", left, right)


#: Trees whose printing the formatter must get right, with the text.
FORMATTED = [
    (ast.BinaryOp("-", col("a"), lit(-3)), "a - -3"),
    (ast.UnaryOp("NOT", ast.BinaryOp("=", col("a"), col("b"))),
     "NOT a = b"),
    (ast.BinaryOp("OR", ast.BinaryOp("=", col("a"), col("b")),
                  _and(ast.IsNull(col("c")), ast.IsNull(col("d")))),
     "a = b OR (c IS NULL AND d IS NULL)"),
    (_and(_and(col("a"), col("b")), col("c")), "a AND b AND c"),
    (_and(col("a"), _and(col("b"), col("c"))), "a AND (b AND c)"),
    (lit(math.inf), "1e999"),
    (lit(-math.inf), "-1e999"),
]


@given(_EXPRESSIONS)
@example(FORMATTED[0][0])
@example(FORMATTED[1][0])
@example(FORMATTED[2][0])
@example(FORMATTED[3][0])
@example(FORMATTED[4][0])
@example(FORMATTED[5][0])
@settings(max_examples=600, deadline=None)
def test_formatter_parses_back(expr):
    assert parse_expression(format_expr(expr)) == expr


@pytest.mark.parametrize("tree, text", FORMATTED)
def test_formatter_prints_minimal_parentheses(tree, text):
    assert format_expr(tree) == text
    parsed = parse_expression(text)
    assert parsed == tree
    if isinstance(tree, ast.Literal):
        assert type(parsed.value) is type(tree.value)
