"""Reference lexer: the original character-at-a-time tokenizer, kept
verbatim as the oracle for :func:`repro.sql.tokens.tokenize`.

It produces a flat list of :class:`Token` with eagerly computed 1-based
line/column positions.  ``tests/sql/test_lexer_oracle.py`` asserts
that the master-regex lexer yields the same ``(type, value, quoted,
line, column)`` stream, or the same ``SQLSyntaxError``, on any text.
Not imported by the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import SQLSyntaxError


class TokenType(enum.Enum):
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    SYMBOL = "SYMBOL"
    END = "END"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: Any
    line: int
    column: int
    quoted: bool = False

    def matches_keyword(self, keyword: str) -> bool:
        # A double-quoted identifier is never a keyword: the generated
        # horizontal column for a NULL combination is literally named
        # "null", and must not re-parse as the NULL literal.
        return (self.type == TokenType.IDENT
                and not self.quoted
                and isinstance(self.value, str)
                and self.value.upper() == keyword.upper())


#: Multi-character symbols first so maximal munch applies.  ``?`` is
#: the DB-API's qmark placeholder: ``api/dbapi.py`` substitutes it by
#: token position before parsing, and no grammar rule accepts one that
#: survives (the parser's usual "unexpected token" SQLSyntaxError).
_SYMBOLS = ["<>", "<=", ">=", "!=", "||",
            "(", ")", ",", ".", ";", "*", "+", "-", "/", "=", "<", ">",
            "?"]

_IDENT_START = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789$")

#: ASCII digits only: str.isdigit() also accepts unicode digits (e.g.
#: superscripts) that int()/float() reject.
_DIGITS = set("0123456789")


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        column = i - line_start + 1
        # Comments: -- to end of line, /* ... */
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise SQLSyntaxError("unterminated comment", line, column)
            segment = text[i:end]
            line += segment.count("\n")
            if "\n" in segment:
                line_start = i + segment.rfind("\n") + 1
            i = end + 2
            continue
        if ch == "'":
            value, i = _scan_string(text, i, line, column)
            tokens.append(Token(TokenType.STRING, value, line, column))
            continue
        if ch == '"':
            value, i = _scan_quoted_ident(text, i, line, column)
            tokens.append(Token(TokenType.IDENT, value, line, column,
                                quoted=True))
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n
                             and text[i + 1] in _DIGITS):
            value, i = _scan_number(text, i)
            tokens.append(Token(TokenType.NUMBER, value, line, column))
            continue
        if ch in _IDENT_START:
            start = i
            while i < n and text[i] in _IDENT_CONT:
                i += 1
            tokens.append(Token(TokenType.IDENT, text[start:i],
                                line, column))
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token(TokenType.SYMBOL, symbol, line, column))
                i += len(symbol)
                break
        else:
            raise SQLSyntaxError(f"unexpected character {ch!r}",
                                 line, column)
    tokens.append(Token(TokenType.END, None, line, n - line_start + 1))
    return tokens


def _scan_string(text: str, i: int, line: int,
                 column: int) -> tuple[str, int]:
    """Scan a single-quoted string; '' escapes a quote."""
    i += 1
    parts: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        if ch == "\n":
            raise SQLSyntaxError("newline in string literal", line, column)
        parts.append(ch)
        i += 1
    raise SQLSyntaxError("unterminated string literal", line, column)


def _scan_quoted_ident(text: str, i: int, line: int,
                       column: int) -> tuple[str, int]:
    """Scan a double-quoted identifier (used for generated horizontal
    column names such as ``"dweek=1"``)."""
    i += 1
    parts: list[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            if i + 1 < n and text[i + 1] == '"':
                parts.append('"')
                i += 2
                continue
            return "".join(parts), i + 1
        if ch == "\n":
            raise SQLSyntaxError("newline in quoted identifier",
                                 line, column)
        parts.append(ch)
        i += 1
    raise SQLSyntaxError("unterminated quoted identifier", line, column)


def _scan_number(text: str, i: int) -> tuple[Any, int]:
    start = i
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch in _DIGITS:
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            # A dot not followed by a digit terminates the number
            # (e.g. "1.e" never occurs; "t1.col" must not eat the dot
            # when scanning "1" inside an identifier context -- but a
            # number token never precedes '.', so consuming is safe
            # only when a digit follows).
            if i + 1 < n and text[i + 1] in _DIGITS:
                seen_dot = True
                i += 1
            else:
                break
        elif ch in "eE" and not seen_exp and i > start:
            lookahead = i + 1
            if lookahead < n and text[lookahead] in "+-":
                lookahead += 1
            if lookahead < n and text[lookahead] in _DIGITS:
                seen_exp = True
                i = lookahead
            else:
                break
        else:
            break
    literal = text[start:i]
    if seen_dot or seen_exp:
        return float(literal), i
    return int(literal), i
