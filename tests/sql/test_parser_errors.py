"""Negative parser tests: malformed SQL must raise SQLSyntaxError with
positions, never crash or mis-parse."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql.parser import parse_expression, parse_statement

BAD_STATEMENTS = [
    "SELECT",
    "SELECT FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t GROUP BY",
    "SELECT a FROM t ORDER BY",
    "SELECT a FROM t LIMIT x",
    "SELECT a FROM t LIMIT 1.5",
    "SELECT a, FROM t",
    "SELECT a FROM t JOIN u",                 # missing ON
    "SELECT a FROM t LEFT JOIN u ON",
    "SELECT a FROM (SELECT a FROM t)",        # derived needs alias
    "CREATE t (a INT)",
    "CREATE TABLE t",
    "CREATE TABLE t (a)",
    "CREATE TABLE t (a INT",
    "CREATE INDEX ix ON t",
    "CREATE VIEW v SELECT 1",
    "DROP",
    "DROP SOMETHING t",
    "INSERT t VALUES (1)",
    "INSERT INTO t VALUES 1",
    "INSERT INTO t (a VALUES (1)",
    "UPDATE t a = 1",
    "UPDATE t SET",
    "UPDATE t SET a",
    "DELETE t",
    "SELECT CASE a THEN 1 END FROM t",
    "SELECT CASE WHEN a END FROM t",
    "SELECT CAST(a) FROM t",
    "SELECT CAST(a AS) FROM t",
    "SELECT sum( FROM t",
    "SELECT sum(a BY) FROM t",
    "SELECT sum(a) OVER FROM t",
    "SELECT a FROM t; garbage",
    "EXPLAIN",
]


@pytest.mark.parametrize("sql", BAD_STATEMENTS)
def test_bad_statement_raises_syntax_error(sql):
    with pytest.raises(SQLSyntaxError):
        parse_statement(sql)


BAD_EXPRESSIONS = [
    "",
    "1 +",
    "(1",
    "a IN",
    "a IN ()",
    "a BETWEEN 1",
    "a IS",
    "a NOT",
    "NOT",
    "a ==" ,
    "CASE END",
]


@pytest.mark.parametrize("text", BAD_EXPRESSIONS)
def test_bad_expression_raises_syntax_error(text):
    with pytest.raises(SQLSyntaxError):
        parse_expression(text)


def test_error_carries_position():
    with pytest.raises(SQLSyntaxError) as err:
        parse_statement("SELECT a\nFROM t WHERE ???")
    assert err.value.line == 2


def test_nested_errors_do_not_leak_other_exceptions():
    # A once-common failure mode: deep nesting hitting Python-level
    # errors instead of clean syntax errors.
    deep = "(" * 50 + "1" + ")" * 49
    with pytest.raises(SQLSyntaxError):
        parse_statement(f"SELECT {deep}")


@pytest.mark.parametrize("sql, column", [
    ("CREATE TABLE t (a VARCHAR(20", 29),
    ("SELECT CAST(a AS VARCHAR(20", 28),
])
def test_unclosed_type_suffix_raises_at_end(sql, column):
    """A type suffix like ``VARCHAR(20)`` left open is an error at the
    end of the input -- skipping it once looped forever there."""
    with pytest.raises(SQLSyntaxError) as err:
        parse_statement(sql)
    assert str(err.value).startswith("expected ')', got end of input")
    assert (err.value.line, err.value.column) == (1, column)

