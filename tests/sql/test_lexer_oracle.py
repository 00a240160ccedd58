"""Differential test of the master-regex lexer against the original
character-loop lexer (``tests/sql/reference_lexer.py``): on any text
both yield the same ``(type, value, quoted, line, column)`` stream, or
the same ``SQLSyntaxError`` message, line and column."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SQLSyntaxError
from repro.sql import tokens
from tests.sql import reference_lexer


def lexed(module, text):
    try:
        return [(t.type.name, type(t.value).__name__, t.value, t.quoted,
                 t.line, t.column) for t in module.tokenize(text)]
    except SQLSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def assert_same(text):
    assert lexed(tokens, text) == lexed(reference_lexer, text)


#: Lexemes and near-lexemes where a regex and a character loop could
#: part ways: comments spanning lines, both quote kinds with doubled-
#: quote escapes, number edges, minus versus a line comment, and every
#: unterminated form.
_FRAGMENTS = [
    "SELECT", "a", "t1", "c", "_x$", "é", "1", "12", "1.5", "1.e5", ".5",
    "1e", "1e5", "1E+3", "2.5e-1", "1e-", ".", "t1.c", "-", "--", "- -1",
    "-- note\n", "--?\r\n", "/*", "*/", "/* a\nb */", "/*/", "/**/", "*",
    "/", "'", "''", "'it''s'", "'a\nb'", "'?'", "'\r'", '"', '""',
    '"a""b"', '"x\ny"', '"null"', "<>", "<=", ">=", "!=", "!", "||", "|",
    "<", ">", "=", "(", ")", ",", ";", "?", "+", "~", "\t", "\f", " ",
]

_SEPARATORS = st.sampled_from(["", "", " ", "\n", "\r\n", "\t"])

_SOUP = st.lists(st.tuples(st.sampled_from(_FRAGMENTS), _SEPARATORS),
                 min_size=1, max_size=30).map(
    lambda parts: "".join(f + sep for f, sep in parts))


@given(st.text(max_size=200))
@settings(max_examples=400, deadline=None)
def test_lexers_agree_on_any_text(text):
    assert_same(text)


@given(_SOUP)
@settings(max_examples=1500, deadline=None)
@example("a /* x\ny */ b\n  'it''s' \"q\"\"x\" -- tail")
@example("SELECT 1.e5, .5, 1e, t1.c - -1 --1\n")
def test_lexers_agree_on_sql_shaped_soup(text):
    assert_same(text)


@pytest.mark.parametrize("text", [
    "", " ", "\n\n", "a\n  b", "a   ", "-- only a comment",
    "'open", "'a''", "'a\nb'", "'a'' \n'", '"open', '"a""', '"a\nb"',
    "x /* never closed", "x /*/", "a ~ b", "a\r\n ! b", "1.5.5", "1e5.5",
    ".5.5", "1abc", "a1e5", "²", "x\u00a0y",
])
def test_lexers_agree_on_edges(text):
    assert_same(text)
