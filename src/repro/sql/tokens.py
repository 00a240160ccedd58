"""Tokenizer for the SQL subset.

One compiled master regular expression, driven by ``finditer``, cuts
the text into lexemes; each match folds in the whitespace before it.
A :class:`Token` keeps its character offset into the text (the DB-API
splices bound parameters in at it); its 1-based line and column are
derived from the offset only when an error message asks for them.

Keywords are not distinguished from identifiers here.  Instead every
token carries a comparison *key*: the upper-cased word of an unquoted
identifier, the text of a symbol, ``None`` otherwise.  The parser
matches keywords and symbols by comparing keys for equality, which
keeps the lexer independent of the grammar (and lets ``state``,
``store`` etc. be column names even though they start like keywords).
"""

from __future__ import annotations

import enum
import re
from typing import Any, Optional

from repro.errors import SQLSyntaxError


class TokenType(enum.Enum):
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    SYMBOL = "SYMBOL"
    END = "END"


class Token:
    """One lexeme: its type, value, comparison key and offset."""

    __slots__ = ("type", "value", "key", "offset", "_text")

    def __init__(self, type: TokenType, value: Any, key: Optional[str],
                 offset: int, text: str):
        self.type = type
        self.value = value
        self.key = key
        self.offset = offset
        self._text = text

    @property
    def quoted(self) -> bool:
        """A double-quoted identifier (the only IDENT without a key)."""
        return self.type is TokenType.IDENT and self.key is None

    @property
    def line(self) -> int:
        return _position(self._text, self.offset)[0]

    @property
    def column(self) -> int:
        return _position(self._text, self.offset)[1]

    def matches_keyword(self, keyword: str) -> bool:
        # A double-quoted identifier is never a keyword: the generated
        # horizontal column for a NULL combination is literally named
        # "null", and must not re-parse as the NULL literal.
        return (self.type is TokenType.IDENT
                and self.key == keyword.upper())

    def __repr__(self) -> str:
        return (f"Token({self.type.name}, {self.value!r}, "
                f"{self.line}:{self.column})")


#: The master pattern.  Alternatives are tried in order: identifiers,
#: the commonest lexeme, first; a comment before the ``-`` symbol (and
#: ``/`` is a symbol only when no ``*`` follows), a number before
#: ``.``, and multi-character symbols before their one-character
#: prefixes (maximal munch).  Strings and quoted identifiers end at a
#: quote that is not followed by another (``''`` / ``""`` escape one).
#: The ``error`` group catches what starts a lexeme but cannot finish
#: one -- an unclosed comment, string or quoted identifier -- and any
#: character outside the language.  ``\Z`` ends the scan and takes a
#: blank tail in one match (otherwise it would be re-scanned from every
#: offset in it).  Digits are ASCII only: ``\d`` would also accept
#: unicode digits that int()/float() reject.  ``?`` is the DB-API's
#: qmark placeholder: ``api/dbapi.py`` substitutes it by offset before
#: parsing, and no grammar rule accepts one that survives (the parser's
#: usual "unexpected token" SQLSyntaxError).
_MASTER = re.compile(r"""
    [ \t\r\n]*
    (?:
        (?P<ident> [A-Za-z_][A-Za-z0-9_$]* )
      | (?P<comment> --[^\n]* | /\*(?s:.*?)\*/ )
      | (?P<number> (?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)? )
      | (?P<symbol> <> | <= | >= | != | \|\| | /(?!\*) | [(),.;*+\-=<>?] )
      | (?P<string> '[^'\n]*(?:''[^'\n]*)*'(?!') )
      | (?P<quoted> "[^"\n]*(?:""[^"\n]*)*"(?!") )
      | (?P<error> [^ \t\r\n] )
      | \Z
    )""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SQLSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    ident, symbol = TokenType.IDENT, TokenType.SYMBOL
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        if kind == "ident":
            word = match["ident"]
            append(Token(ident, word, word.upper(),
                         match.start("ident"), text))
        elif kind == "symbol":
            lexeme = match["symbol"]
            append(Token(symbol, lexeme, lexeme,
                         match.start("symbol"), text))
        elif kind == "number":
            lexeme = match["number"]
            value = (int(lexeme) if lexeme.isdigit() else float(lexeme))
            append(Token(TokenType.NUMBER, value, None,
                         match.start("number"), text))
        elif kind == "string":
            append(Token(TokenType.STRING,
                         match["string"][1:-1].replace("''", "'"), None,
                         match.start("string"), text))
        elif kind == "quoted":
            append(Token(ident, match["quoted"][1:-1].replace('""', '"'),
                         None, match.start("quoted"), text))
        elif kind == "error":
            raise _lex_error(text, match.start("error"))
        elif kind is None:
            break
    tokens.append(Token(TokenType.END, None, None, len(text), text))
    return tokens


def _lex_error(text: str, offset: int) -> SQLSyntaxError:
    """The typed error for the lexeme that cannot start at ``offset``."""
    ch = text[offset]
    if ch == "/":
        message = "unterminated comment"
    elif ch in "'\"":
        what = "string literal" if ch == "'" else "quoted identifier"
        newline = text.find("\n", offset) >= 0
        message = f"{'newline in' if newline else 'unterminated'} {what}"
    else:
        message = f"unexpected character {ch!r}"
    return SQLSyntaxError(message, *_position(text, offset))


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``offset``; only "\\n" ends a line."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))
