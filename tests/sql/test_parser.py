"""Unit tests for the SQL parser, including the paper's extension
syntax."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.parser import (parse_expression, parse_script,
                              parse_statement)


class TestSelect:
    def test_simple(self):
        stmt = parse_statement("SELECT a, b FROM t")
        assert isinstance(stmt, ast.Select)
        assert len(stmt.items) == 2
        assert stmt.from_.first.name == "t"

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_star_and_qualified_star(self):
        stmt = parse_statement("SELECT *, t.* FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[1].expr.table == "t"

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"

    def test_group_by_positions(self):
        stmt = parse_statement(
            "SELECT a, b, count(*) FROM t GROUP BY 1, 2")
        assert stmt.group_by == (ast.Literal(1), ast.Literal(2))

    def test_full_clause_set(self):
        stmt = parse_statement(
            "SELECT a, sum(b) FROM t WHERE a > 0 GROUP BY a "
            "HAVING sum(b) > 10 ORDER BY a DESC LIMIT 5")
        assert stmt.where is not None
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 5

    def test_comma_join(self):
        stmt = parse_statement("SELECT * FROM a, b WHERE a.x = b.x")
        assert stmt.from_.joins[0].kind == "cross"

    def test_left_outer_join(self):
        stmt = parse_statement(
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x "
            "LEFT JOIN c ON a.x = c.x")
        assert [j.kind for j in stmt.from_.joins] == ["left", "left"]

    def test_inner_join(self):
        stmt = parse_statement("SELECT * FROM a JOIN b ON a.x = b.x")
        assert stmt.from_.joins[0].kind == "inner"

    def test_derived_table(self):
        stmt = parse_statement(
            "SELECT q.a FROM (SELECT a FROM t) q")
        assert isinstance(stmt.from_.first, ast.SubquerySource)
        assert stmt.from_.first.alias == "q"

    def test_derived_table_requires_alias(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM (SELECT a FROM t)")


class TestExtendedSyntax:
    def test_vpct(self):
        stmt = parse_statement(
            "SELECT state, city, Vpct(salesAmt BY city) FROM sales "
            "GROUP BY state, city")
        call = stmt.items[2].expr
        assert call.name == "vpct"
        assert [c.name for c in call.by_columns] == ["city"]

    def test_hpct_multi_by(self):
        call = parse_expression("Hpct(a BY d1, d2)")
        assert call.name == "hpct"
        assert len(call.by_columns) == 2

    def test_hagg_with_default(self):
        call = parse_expression("max(1 BY deptId DEFAULT 0)")
        assert call.name == "max"
        assert call.default == ast.Literal(0)
        assert call.is_extended

    def test_count_distinct_by(self):
        call = parse_expression(
            "count(distinct transactionid BY dayofweekNo)")
        assert call.distinct
        assert call.by_columns[0].name == "dayofweekNo"

    def test_plain_aggregate_not_extended(self):
        assert not parse_expression("sum(a)").is_extended

    def test_window_function(self):
        call = parse_expression("sum(a) OVER (PARTITION BY b, c)")
        assert call.over is not None
        assert len(call.over.partition_by) == 2

    def test_window_empty_over(self):
        call = parse_expression("sum(a) OVER ()")
        assert call.over == ast.WindowSpec(())


class TestExpressions:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_case(self):
        expr = parse_expression(
            "CASE WHEN a = 1 THEN 'x' WHEN a = 2 THEN 'y' "
            "ELSE 'z' END")
        assert isinstance(expr, ast.CaseWhen)
        assert len(expr.whens) == 2
        assert expr.else_ == ast.Literal("z")

    def test_case_requires_when(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("CASE ELSE 1 END")

    def test_cast(self):
        expr = parse_expression("CAST(a AS VARCHAR(20))")
        assert isinstance(expr, ast.Cast)
        assert expr.type_name == "VARCHAR"

    def test_not_in_between(self):
        assert isinstance(parse_expression("a NOT IN (1, 2)"),
                          ast.InList)
        between = parse_expression("a BETWEEN 1 AND 2")
        assert between.op == "AND"

    def test_is_null(self):
        assert parse_expression("a IS NOT NULL").negated

    def test_literals(self):
        assert parse_expression("NULL") == ast.Literal(None)
        assert parse_expression("TRUE") == ast.Literal(True)
        # Unary minus on a number folds into a negative literal.
        assert parse_expression("-3") == ast.Literal(-3)
        assert parse_expression("-x").op == "-"


class TestDML:
    def test_insert_values(self):
        stmt = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT a FROM u")
        assert isinstance(stmt, ast.InsertSelect)

    def test_update_with_from(self):
        stmt = parse_statement(
            "UPDATE fk SET a = fk.a / fj.t FROM fj "
            "WHERE fk.d = fj.d")
        assert stmt.from_tables[0].name == "fj"
        assert stmt.assignments[0].column == "a"

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.Delete)

    def test_create_table_variants(self):
        inline = parse_statement(
            "CREATE TABLE t (a INT, b REAL, PRIMARY KEY (a))")
        trailing = parse_statement(
            "CREATE TABLE t (a INT, b REAL) PRIMARY KEY (a)")
        assert inline.primary_key == trailing.primary_key == ("a",)

    def test_create_table_as(self):
        stmt = parse_statement("CREATE TABLE t AS SELECT 1")
        assert isinstance(stmt, ast.CreateTableAs)

    def test_create_drop_index(self):
        stmt = parse_statement("CREATE INDEX ix ON t (a, b)")
        assert stmt.columns == ("a", "b")
        assert parse_statement("DROP INDEX IF EXISTS ix").if_exists


class TestScripts:
    def test_multiple_statements(self):
        script = parse_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); "
            "SELECT a FROM t;")
        assert len(script) == 3

    def test_trailing_semicolon_optional(self):
        assert len(parse_script("SELECT 1")) == 1

    def test_garbage_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELEKT 1")

    def test_trailing_junk_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT 1 garbage extra tokens ,")


class TestQuotedKeywordColumns:
    """Columns named after keywords stay selectable when quoted."""

    def test_select_column_named_null(self):
        from repro.sql import ast
        stmt = parse_statement('SELECT "null" FROM t')
        expr = stmt.items[0].expr
        assert isinstance(expr, ast.ColumnRef)
        assert expr.name == "null"

    def test_column_named_null_round_trips_with_data(self):
        from repro import Database
        db = Database()
        db.execute('CREATE TABLE t ("null" REAL, "case" INT)')
        db.execute("INSERT INTO t VALUES (2.5, 1), (NULL, 2)")
        assert db.query('SELECT "null", "case" FROM t '
                        'ORDER BY "case"') == [(2.5, 1), (None, 2)]

    def test_quoted_from_is_a_table_name(self):
        stmt = parse_statement('SELECT x FROM "from"')
        assert stmt.from_.first.name == "from"


class TestWalk:
    def test_parents_first_children_left_to_right(self):
        """``ast.walk`` is depth-first pre-order over every node kind
        (``column_refs`` promises "walk order")."""
        expr = parse_expression(
            "CASE WHEN a IN (b, c) THEN -d WHEN e IS NULL THEN "
            "CAST(f AS INT) ELSE sum(g BY h DEFAULT i) + "
            "max(j) OVER (PARTITION BY k, l) END")
        assert [ref.name for ref in ast.column_refs(expr)] == \
            list("abcdefgijkl")
        kinds = [type(node).__name__ for node in ast.walk(expr)]
        assert kinds[:4] == ["CaseWhen", "InList", "ColumnRef",
                             "ColumnRef"]
        sets = parse_statement(
            "SELECT 1 FROM t GROUP BY GROUPING SETS ((a, b), (c)), "
            "CUBE (d, e), ROLLUP (f)").group_by
        assert [ref.name for gset in sets
                for ref in ast.column_refs(gset)] == list("abcdef")
