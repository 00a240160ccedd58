"""Fuzzing the SQL front end: arbitrary text must either parse or
raise a clean SQLSyntaxError -- never crash with anything else."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLSyntaxError
from repro.sql.formatter import format_statement
from repro.sql.parser import parse_statement
from repro.sql.tokens import tokenize


@given(st.text(max_size=120))
@settings(max_examples=300, deadline=None)
def test_tokenizer_total(text):
    try:
        tokens = tokenize(text)
    except SQLSyntaxError:
        return
    assert tokens[-1].value is None  # END token


@given(st.text(max_size=120))
@settings(max_examples=300, deadline=None)
def test_parser_total(text):
    try:
        statement = parse_statement(text)
    except SQLSyntaxError:
        return
    # Whatever parsed must be formattable, and the formatted text must
    # parse again (weak round-trip on arbitrary accepted inputs).
    rendered = format_statement(statement)
    reparsed = parse_statement(rendered)
    assert format_statement(reparsed) == rendered


#: SQL-looking fragments make the fuzzer reach deeper grammar paths
#: than uniform unicode text does.
_SQLISH = st.lists(st.sampled_from([
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "t", "a", "b",
    "sum", "(", ")", ",", "*", "=", "1", "'x'", "CASE", "WHEN",
    "THEN", "END", "JOIN", "ON", "NULL", "Vpct", "OVER", "PARTITION",
    "DISTINCT", "AS", ";", "INSERT", "INTO", "VALUES", "UPDATE",
    "SET", "-", "/", "AND", "OR", "NOT", "IN", "IS", "CAST", "CREATE",
    "TABLE", "VARCHAR", "INT"]),
    min_size=1, max_size=25).map(" ".join)


@given(_SQLISH)
@settings(max_examples=400, deadline=None)
def test_parser_total_on_sql_shaped_soup(text):
    try:
        statement = parse_statement(text)
    except SQLSyntaxError:
        return
    rendered = format_statement(statement)
    assert format_statement(parse_statement(rendered)) == rendered
