"""Recursive-descent parser for the SQL subset plus the paper's
extension syntax.

Grammar highlights:

* ``SELECT [DISTINCT] items FROM sources [WHERE] [GROUP BY] [HAVING]
  [ORDER BY] [LIMIT]`` with comma joins and ``[INNER|LEFT [OUTER]]
  JOIN ... ON``.
* ``GROUP BY 1, 2`` positional references (used throughout the
  companion paper) parse as integer literals; the planner resolves
  them against the select list.
* Aggregate calls accept the paper's extensions:
  ``Vpct(A BY D1, D2)``, ``Hpct(A BY D1)``,
  ``sum(A BY D1 DEFAULT 0)``, and ``OVER (PARTITION BY ...)``.
* ``CREATE TABLE t (...) [PRIMARY KEY (...)]`` accepts the primary key
  inside or after the column list (the paper writes the Teradata-style
  trailing form).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import GroupingSetError, SQLSyntaxError
from repro.sql import ast
from repro.sql.tokens import Token, TokenType, tokenize


def _render_set(exprs: tuple[ast.Expr, ...]) -> str:
    """Render a grouping set for error messages, e.g. ``(d1, d2)``."""
    from repro.sql.formatter import format_expr
    return "(" + ", ".join(format_expr(e) for e in exprs) + ")"


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one SQL statement (a trailing ';' is allowed)."""
    parser = _Parser(tokenize(text))
    statement = parser.statement()
    parser.accept_symbol(";")
    parser.expect_end()
    return statement


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a ';'-separated sequence of statements."""
    parser = _Parser(tokenize(text))
    statements: list[ast.Statement] = []
    while not parser.at_end():
        statements.append(parser.statement())
        if not parser.accept_symbol(";"):
            break
    parser.expect_end()
    return statements


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone scalar expression (for tests and tools)."""
    parser = _Parser(tokenize(text))
    expr = parser.expression()
    parser.expect_end()
    return expr


#: Binding powers of the expression grammar, loosest first.  ``NOT`` is
#: the prefix operator: its operand is a comparison (or another NOT),
#: so ``NOT a = b AND c`` is ``(NOT (a = b)) AND c``.
_OR, _AND, _NOT, _COMPARE, _ADD, _MUL = range(1, 7)

#: Infix operators by token key -> (binding power, AST operator).  The
#: comparison level also holds ``IS``, ``IN``, ``BETWEEN`` and the
#: ``NOT`` of ``NOT IN`` / ``NOT BETWEEN``; :meth:`_Parser._comparison`
#: builds those.  ``!=`` is spelled ``<>`` in the tree.
_INFIX = {
    "OR": (_OR, "OR"), "AND": (_AND, "AND"),
    "=": (_COMPARE, "="), "<>": (_COMPARE, "<>"), "!=": (_COMPARE, "<>"),
    "<": (_COMPARE, "<"), "<=": (_COMPARE, "<="),
    ">": (_COMPARE, ">"), ">=": (_COMPARE, ">="),
    "IS": (_COMPARE, None), "IN": (_COMPARE, None),
    "BETWEEN": (_COMPARE, None), "NOT": (_COMPARE, None),
    "+": (_ADD, "+"), "-": (_ADD, "-"),
    "*": (_MUL, "*"), "/": (_MUL, "/"),
}

#: Keywords that are literal values in an expression.
_LITERAL_KEYWORDS = {"NULL": None, "TRUE": True, "FALSE": False}

_END = TokenType.END
_IDENT = TokenType.IDENT
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING


class _Parser:
    """Keywords and symbols are matched by comparing a token's ``key``
    (the upper-cased word of an unquoted identifier, a symbol's text,
    otherwise ``None``) with the upper-case keyword or the symbol, so
    each probe is one equality test."""

    def __init__(self, tokens: list[Token]):
        # Two spare END tokens let peek(1) and peek(2) index past the
        # end without a bounds check; the position never passes the
        # first END.
        self._tokens = tokens + tokens[-1:] * 2
        self._pos = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not _END:
            self._pos += 1
        return token

    def at_end(self) -> bool:
        return self._tokens[self._pos].type is _END

    def error(self, message: str) -> SQLSyntaxError:
        token = self._tokens[self._pos]
        return SQLSyntaxError(message, token.line, token.column)

    def accept_keyword(self, keyword: str) -> Optional[str]:
        """Consume the upper-case ``keyword`` if it is next."""
        if self._tokens[self._pos].key == keyword:
            self._pos += 1
            return keyword
        return None

    def expect_keyword(self, keyword: str) -> None:
        if not self.accept_keyword(keyword):
            raise self.error(f"expected {keyword}, got "
                             f"{self._describe(self.peek())}")

    def peek_keyword(self, keyword: str, offset: int = 0) -> bool:
        return self._tokens[self._pos + offset].key == keyword

    def accept_symbol(self, symbol: str) -> bool:
        if self._tokens[self._pos].key == symbol:
            self._pos += 1
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.accept_symbol(symbol):
            raise self.error(f"expected {symbol!r}, got "
                             f"{self._describe(self.peek())}")

    def peek_symbol(self, symbol: str, offset: int = 0) -> bool:
        return self._tokens[self._pos + offset].key == symbol

    def expect_ident(self, what: str = "identifier") -> str:
        token = self._tokens[self._pos]
        if token.type is not _IDENT:
            raise self.error(f"expected {what}, got "
                             f"{self._describe(token)}")
        self._pos += 1
        return token.value

    def _skip_type_suffix(self) -> None:
        """Swallow a (precision[, scale]) suffix like VARCHAR(20)."""
        if self.accept_symbol("("):
            while not self.accept_symbol(")"):
                if self.at_end():
                    raise self.error("expected ')', got end of input")
                self._pos += 1

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.error(f"unexpected trailing input: "
                             f"{self._describe(self.peek())}")

    @staticmethod
    def _describe(token: Token) -> str:
        if token.type is _END:
            return "end of input"
        return repr(token.value)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def statement(self) -> ast.Statement:
        if self.accept_keyword("EXPLAIN"):
            analyze = bool(self.accept_keyword("ANALYZE"))
            return ast.Explain(self.statement(), analyze=analyze)
        if self.peek_keyword("SELECT"):
            return self.select()
        if self.peek_keyword("CREATE"):
            return self._create()
        if self.peek_keyword("DROP"):
            return self._drop()
        if self.peek_keyword("INSERT"):
            return self._insert()
        if self.peek_keyword("UPDATE"):
            return self._update()
        if self.peek_keyword("DELETE"):
            return self._delete()
        if self.accept_keyword("REFRESH"):
            self.expect_keyword("MATERIALIZED")
            self.expect_keyword("VIEW")
            name = self.expect_ident("view name")
            return ast.RefreshMaterializedView(name)
        raise self.error("expected a SQL statement")

    # -- SELECT ---------------------------------------------------------
    def select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        if self.accept_keyword("ALL"):
            distinct = False
        items = [self._select_item()]
        while self.accept_symbol(","):
            items.append(self._select_item())

        from_clause = None
        if self.accept_keyword("FROM"):
            from_clause = self._from_clause()
        where = self.expression() if self.accept_keyword("WHERE") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = tuple(self._group_by_list())
        having = self.expression() if self.accept_keyword("HAVING") \
            else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = tuple(self._order_items())
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.peek()
            if token.type is not _NUMBER or \
                    not isinstance(token.value, int):
                raise self.error("LIMIT requires an integer")
            self.advance()
            limit = token.value
        return ast.Select(items=tuple(items), from_=from_clause,
                          where=where, group_by=group_by, having=having,
                          order_by=order_by, limit=limit,
                          distinct=distinct)

    def _select_item(self) -> ast.SelectItem:
        if self.peek_symbol("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # t.* form
        if (self.peek().type is _IDENT
                and self.peek_symbol(".", 1) and self.peek_symbol("*", 2)):
            table = self.expect_ident()
            self.advance()  # .
            self.advance()  # *
            return ast.SelectItem(ast.Star(table=table))
        expr = self.expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif (self.peek().type is _IDENT
              and not self._is_clause_boundary(self.peek())):
            alias = self.expect_ident("alias")
        return ast.SelectItem(expr, alias)

    _CLAUSE_KEYWORDS = frozenset({
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "ON",
        "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "AND", "OR",
        "UNION", "SET", "VALUES", "BY", "AS", "DEFAULT", "OVER",
        "PRIMARY", "ELSE", "END", "WHEN", "THEN"})

    def _is_clause_boundary(self, token: Token) -> bool:
        return token.key in self._CLAUSE_KEYWORDS

    def _from_clause(self) -> ast.FromClause:
        first = self._from_source()
        joins: list[ast.JoinStep] = []
        while True:
            if self.accept_symbol(","):
                joins.append(ast.JoinStep("cross", self._from_source()))
                continue
            kind = self._join_kind()
            if kind is None:
                break
            source = self._from_source()
            self.expect_keyword("ON")
            condition = self.expression()
            joins.append(ast.JoinStep(kind, source, condition))
        return ast.FromClause(first, tuple(joins))

    def _join_kind(self) -> Optional[str]:
        if self.accept_keyword("JOIN"):
            return "inner"
        if self.peek_keyword("INNER"):
            self.advance()
            self.expect_keyword("JOIN")
            return "inner"
        if self.peek_keyword("LEFT"):
            self.advance()
            self.accept_keyword("OUTER")
            self.expect_keyword("JOIN")
            return "left"
        return None

    def _from_source(self) -> ast.FromSource:
        if self.accept_symbol("("):
            select = self.select()
            self.expect_symbol(")")
            self.accept_keyword("AS")
            alias = self.expect_ident("derived-table alias")
            return ast.SubquerySource(select, alias)
        name = self.expect_ident("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif (self.peek().type is _IDENT
              and not self._is_clause_boundary(self.peek())):
            alias = self.expect_ident("alias")
        return ast.TableRef(name, alias)

    def _expression_list(self) -> list[ast.Expr]:
        exprs = [self.expression()]
        while self.accept_symbol(","):
            exprs.append(self.expression())
        return exprs

    # -- GROUP BY grouping elements -------------------------------------
    def _group_by_list(self) -> list[ast.Expr]:
        elements = [self._group_by_element()]
        while self.accept_symbol(","):
            elements.append(self._group_by_element())
        return elements

    def _group_by_element(self) -> ast.Expr:
        """One GROUP BY element: ``CUBE (...)``, ``ROLLUP (...)``,
        ``GROUPING SETS (...)`` or a plain expression.  CUBE/ROLLUP/
        GROUPING stay contextual keywords -- they only take effect when
        followed by the construct's parenthesis, so columns named
        ``cube`` etc. keep working everywhere else."""
        if self.peek_keyword("CUBE") and self.peek_symbol("(", 1):
            self.advance()
            return ast.Cube(self._construct_columns("CUBE"))
        if self.peek_keyword("ROLLUP") and self.peek_symbol("(", 1):
            self.advance()
            return ast.Rollup(self._construct_columns("ROLLUP"))
        if self.peek_keyword("GROUPING") and self.peek_keyword("SETS", 1) \
                and self.peek_symbol("(", 2):
            self.advance()
            self.advance()
            return self._grouping_sets()
        return self.expression()

    def _construct_columns(self, construct: str) -> tuple[ast.Expr, ...]:
        """The parenthesized expression list of CUBE/ROLLUP, validated
        non-empty and duplicate-free (typed errors name the set)."""
        self.expect_symbol("(")
        if self.accept_symbol(")"):
            raise GroupingSetError(
                f"{construct} requires at least one expression",
                f"{construct} ()")
        exprs = tuple(self._expression_list())
        self.expect_symbol(")")
        self._check_set_duplicates(exprs, construct)
        return exprs

    def _grouping_sets(self) -> ast.GroupingSets:
        self.expect_symbol("(")
        if self.accept_symbol(")"):
            raise GroupingSetError(
                "GROUPING SETS requires at least one grouping set",
                "GROUPING SETS ()")
        sets = [self._grouping_set()]
        while self.accept_symbol(","):
            sets.append(self._grouping_set())
        self.expect_symbol(")")
        seen: dict[str, None] = {}
        for gset in sets:
            rendered = _render_set(gset)
            if rendered in seen:
                raise GroupingSetError("duplicate grouping set",
                                       rendered)
            seen[rendered] = None
        return ast.GroupingSets(tuple(sets))

    def _grouping_set(self) -> tuple[ast.Expr, ...]:
        """One member of a GROUPING SETS list: ``(a, b)``, ``()`` (the
        grand total) or a bare expression.  A key named twice in one
        set groups once, as in ``GROUP BY a, a``: ``(a, a)`` is
        ``(a)``."""
        if self.accept_symbol("("):
            if self.accept_symbol(")"):
                return ()
            from repro.sql.formatter import format_expr
            exprs: dict[str, ast.Expr] = {}
            for expr in self._expression_list():
                exprs.setdefault(format_expr(expr), expr)
            self.expect_symbol(")")
            return tuple(exprs.values())
        return (self.expression(),)

    @staticmethod
    def _check_set_duplicates(exprs: tuple[ast.Expr, ...],
                              what: str) -> None:
        from repro.sql.formatter import format_expr
        seen: set[str] = set()
        for expr in exprs:
            rendered = format_expr(expr)
            if rendered in seen:
                raise GroupingSetError(
                    f"duplicate expression {rendered} in {what}",
                    _render_set(exprs))
            seen.add(rendered)

    def _order_items(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expr = self.expression()
            ascending = True
            if self.accept_keyword("ASC"):
                ascending = True
            elif self.accept_keyword("DESC"):
                ascending = False
            items.append(ast.OrderItem(expr, ascending))
            if not self.accept_symbol(","):
                return items

    # -- CREATE ----------------------------------------------------------
    def _create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._create_table()
        if self.accept_keyword("VIEW"):
            name = self.expect_ident("view name")
            self.expect_keyword("AS")
            return ast.CreateView(name, self.select())
        if self.accept_keyword("MATERIALIZED"):
            self.expect_keyword("VIEW")
            name = self.expect_ident("view name")
            self.expect_keyword("AS")
            return ast.CreateMaterializedView(name, self.select())
        if self.accept_keyword("INDEX"):
            name = self.expect_ident("index name")
            self.expect_keyword("ON")
            table = self.expect_ident("table name")
            self.expect_symbol("(")
            columns = self._ident_list()
            self.expect_symbol(")")
            return ast.CreateIndex(name, table, tuple(columns))
        raise self.error("expected TABLE, VIEW, MATERIALIZED VIEW or "
                         "INDEX after CREATE")

    def _create_table(self) -> ast.Statement:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_ident("table name")
        if self.accept_keyword("AS"):
            select = self.select()
            return ast.CreateTableAs(name, select)
        self.expect_symbol("(")
        columns: list[ast.ColumnSpec] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                self.expect_symbol("(")
                primary_key = tuple(self._ident_list())
                self.expect_symbol(")")
            else:
                col_name = self.expect_ident("column name")
                type_name = self.expect_ident("type name")
                self._skip_type_suffix()
                columns.append(ast.ColumnSpec((col_name,), type_name))
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("KEY")
            self.expect_symbol("(")
            primary_key = tuple(self._ident_list())
            self.expect_symbol(")")
        return ast.CreateTable(name, ast.column_runs(columns), primary_key,
                               if_not_exists)

    def _drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            if_exists = self._if_exists()
            name = self.expect_ident("table name")
            return ast.DropTable(name, if_exists)
        if self.accept_keyword("VIEW"):
            if_exists = self._if_exists()
            name = self.expect_ident("view name")
            return ast.DropView(name, if_exists)
        if self.accept_keyword("MATERIALIZED"):
            self.expect_keyword("VIEW")
            if_exists = self._if_exists()
            name = self.expect_ident("view name")
            return ast.DropMaterializedView(name, if_exists)
        if self.accept_keyword("INDEX"):
            if_exists = self._if_exists()
            name = self.expect_ident("index name")
            return ast.DropIndex(name, if_exists)
        raise self.error("expected TABLE, VIEW, MATERIALIZED VIEW or "
                         "INDEX after DROP")

    def _if_exists(self) -> bool:
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            return True
        return False

    # -- INSERT / UPDATE / DELETE ----------------------------------------
    def _insert(self) -> ast.Statement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident("table name")
        columns: tuple[str, ...] = ()
        if self.peek_symbol("("):
            self.advance()
            columns = tuple(self._ident_list())
            self.expect_symbol(")")
        if self.accept_keyword("VALUES"):
            rows = [self._value_tuple()]
            while self.accept_symbol(","):
                rows.append(self._value_tuple())
            return ast.InsertValues(table, tuple(rows), columns)
        select = self.select()
        return ast.InsertSelect(table, select, columns)

    def _value_tuple(self) -> tuple[ast.Expr, ...]:
        self.expect_symbol("(")
        exprs = tuple(self._expression_list())
        self.expect_symbol(")")
        return exprs

    def _update(self) -> ast.Statement:
        self.expect_keyword("UPDATE")
        name = self.expect_ident("table name")
        alias = None
        if not self.peek_keyword("SET") and \
                self.peek().type is _IDENT:
            alias = self.expect_ident("alias")
        self.expect_keyword("SET")
        assignments = [self._assignment()]
        while self.accept_symbol(","):
            assignments.append(self._assignment())
        from_tables: list[ast.TableRef] = []
        if self.accept_keyword("FROM"):
            from_tables.append(self._table_ref())
            while self.accept_symbol(","):
                from_tables.append(self._table_ref())
        where = self.expression() if self.accept_keyword("WHERE") else None
        return ast.Update(ast.TableRef(name, alias), tuple(assignments),
                          tuple(from_tables), where)

    def _table_ref(self) -> ast.TableRef:
        name = self.expect_ident("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif (self.peek().type is _IDENT
              and not self._is_clause_boundary(self.peek())):
            alias = self.expect_ident("alias")
        return ast.TableRef(name, alias)

    def _assignment(self) -> ast.Assignment:
        column = self.expect_ident("column name")
        self.expect_symbol("=")
        return ast.Assignment(column, self.expression())

    def _delete(self) -> ast.Statement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self._table_ref()
        where = self.expression() if self.accept_keyword("WHERE") else None
        return ast.Delete(table, where)

    def _ident_list(self) -> list[str]:
        names = [self.expect_ident()]
        while self.accept_symbol(","):
            names.append(self.expect_ident())
        return names

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def expression(self, min_power: int = _OR) -> ast.Expr:
        """An expression whose infix operators all bind at least as
        tightly as ``min_power``.

        One loop over :data:`_INFIX` instead of a function per level.
        ``ceiling`` is the loosest operator that may still extend the
        expression: after a left-associative operator of power p the
        right operand has taken everything tighter, so only p or looser
        follows; a comparison does not associate, so after one only
        AND/OR may follow (``a = b = c`` stops before the second
        ``=``), and the same holds after a prefix NOT.
        """
        tokens = self._tokens
        if min_power <= _NOT and tokens[self._pos].key == "NOT":
            self._pos += 1
            left: ast.Expr = ast.UnaryOp("NOT", self.expression(_NOT))
            ceiling = _AND
        else:
            left = self._unary()
            ceiling = _MUL
        while True:
            infix = _INFIX.get(tokens[self._pos].key)
            if infix is None:
                return left
            power, op = infix
            if power < min_power or power > ceiling:
                return left
            if power == _COMPARE:
                left = self._comparison(left, op)
                ceiling = _AND
            else:
                self._pos += 1
                left = ast.BinaryOp(op, left, self.expression(power + 1))
                ceiling = power

    def _comparison(self, left: ast.Expr, op: Optional[str]) -> ast.Expr:
        """The comparison-level operator next after ``left``: a binary
        ``op``, or (``op`` None) IS / IN / BETWEEN, maybe after NOT."""
        if op is not None:
            self._pos += 1
            return ast.BinaryOp(op, left, self.expression(_ADD))
        if self.accept_keyword("IS"):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = bool(self.accept_keyword("NOT"))
        if self.accept_keyword("IN"):
            self.expect_symbol("(")
            items = tuple(self._expression_list())
            self.expect_symbol(")")
            return ast.InList(left, items, negated)
        if self.accept_keyword("BETWEEN"):
            low = self.expression(_ADD)
            self.expect_keyword("AND")
            high = self.expression(_ADD)
            between = ast.BinaryOp("AND",
                                   ast.BinaryOp(">=", left, low),
                                   ast.BinaryOp("<=", left, high))
            if negated:
                return ast.UnaryOp("NOT", between)
            return between
        raise self.error("expected IN or BETWEEN after NOT")

    def _unary(self) -> ast.Expr:
        key = self._tokens[self._pos].key
        if key == "-":
            self._pos += 1
            # Fold a minus directly applied to a number into a negative
            # literal, so formatting round-trips exactly.
            token = self._tokens[self._pos]
            if token.type is _NUMBER:
                self._pos += 1
                return ast.Literal(-token.value)
            return ast.UnaryOp("-", self._unary())
        if key == "+":
            self._pos += 1
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        kind = token.type
        if kind is _NUMBER or kind is _STRING:
            self._pos += 1
            return ast.Literal(token.value)
        key = token.key
        if key == "(":
            self._pos += 1
            expr = self.expression()
            self.expect_symbol(")")
            return expr
        if key == "CASE":
            return self._case()
        if key == "CAST":
            return self._cast()
        if key in _LITERAL_KEYWORDS:
            self._pos += 1
            return ast.Literal(_LITERAL_KEYWORDS[key])
        if kind is _IDENT:
            if self._is_clause_boundary(token):
                raise self.error(
                    f"unexpected keyword {token.value!r} in "
                    f"expression")
            return self._identifier_expression()
        raise self.error(f"unexpected token "
                         f"{self._describe(token)} in expression")

    def _case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            condition = self.expression()
            self.expect_keyword("THEN")
            result = self.expression()
            whens.append((condition, result))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        else_ = None
        if self.accept_keyword("ELSE"):
            else_ = self.expression()
        self.expect_keyword("END")
        return ast.CaseWhen(tuple(whens), else_)

    def _cast(self) -> ast.Expr:
        self.expect_keyword("CAST")
        self.expect_symbol("(")
        operand = self.expression()
        self.expect_keyword("AS")
        type_name = self.expect_ident("type name")
        self._skip_type_suffix()
        self.expect_symbol(")")
        return ast.Cast(operand, type_name)

    def _identifier_expression(self) -> ast.Expr:
        name = self.expect_ident()
        if self.peek_symbol("("):
            return self._func_call(name)
        if self.accept_symbol("."):
            column = self.expect_ident("column name")
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)

    def _func_call(self, name: str) -> ast.Expr:
        self.expect_symbol("(")
        distinct = False
        args: list[ast.Expr] = []
        by_columns: list[ast.ColumnRef] = []
        default: Optional[ast.Expr] = None

        if self.accept_symbol(")"):
            pass
        else:
            if self.accept_keyword("DISTINCT"):
                distinct = True
            if self.peek_symbol("*"):
                self.advance()
                args.append(ast.Star())
            else:
                args.append(self.expression())
            # Extended BY clause: sum(A BY D1, D2 [DEFAULT 0])
            if self.accept_keyword("BY"):
                by_columns.append(self._by_column())
                while self.accept_symbol(","):
                    by_columns.append(self._by_column())
            if self.accept_keyword("DEFAULT"):
                default = self.expression()
            while self.accept_symbol(","):
                args.append(self.expression())
            self.expect_symbol(")")

        over = None
        if self.accept_keyword("OVER"):
            self.expect_symbol("(")
            partition: list[ast.Expr] = []
            if self.accept_keyword("PARTITION"):
                self.expect_keyword("BY")
                partition = self._expression_list()
            self.expect_symbol(")")
            over = ast.WindowSpec(tuple(partition))

        return ast.FuncCall(name=name.lower(), args=tuple(args),
                            distinct=distinct,
                            by_columns=tuple(by_columns),
                            default=default, over=over)

    def _by_column(self) -> ast.ColumnRef:
        name = self.expect_ident("column name")
        if self.accept_symbol("."):
            column = self.expect_ident("column name")
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)
