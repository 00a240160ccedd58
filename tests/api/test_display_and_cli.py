"""Unit tests for the text renderer and the interactive shell."""

import io

import pytest

from repro import Database
from repro.api.display import render_table, render_value
from repro.cli import Shell, _parse_strategy
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy)
from repro.engine.column import ColumnData
from repro.engine.table import Table
from repro.engine.types import SQLType


class TestRenderValue:
    def test_null(self):
        assert render_value(None) == "NULL"

    def test_float_trims_zeros(self):
        assert render_value(0.25) == "0.25"
        assert render_value(1.0) == "1"

    def test_float_digits(self):
        assert render_value(1 / 3, float_digits=2) == "0.33"

    def test_int_and_str(self):
        assert render_value(7) == "7"
        assert render_value("x") == "x"


class TestFormatTable:
    @pytest.fixture
    def table(self):
        return Table.from_columns("t", [
            ("name", ColumnData.from_values(SQLType.VARCHAR,
                                            ["a", "bbbb", None])),
            ("pct", ColumnData.from_values(SQLType.REAL,
                                           [0.5, 0.25, None])),
        ])

    def test_alignment_and_counts(self, table):
        text = render_table(table)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "(3 rows)" in lines[-1]
        assert "NULL" in text

    def test_truncation(self, table):
        text = render_table(table, max_rows=2)
        assert "(1 more rows)" in text

    def test_single_row_grammar(self):
        table = Table.from_columns("t", [
            ("a", ColumnData.from_values(SQLType.INTEGER, [1]))])
        assert "(1 row)" in render_table(table)


class TestShell:
    @pytest.fixture
    def shell(self):
        return Shell(Database(keep_history=True), out=io.StringIO())

    def output(self, shell):
        return shell.out.getvalue()

    def test_ddl_dml_select(self, shell):
        assert shell.handle("CREATE TABLE t (a INT);")
        assert shell.handle("INSERT INTO t VALUES (1), (2);")
        assert shell.handle("SELECT a FROM t ORDER BY a;")
        text = self.output(shell)
        assert "ok (2 rows)" in text
        assert "(2 rows)" in text

    def test_percentage_query_routed(self, shell):
        shell.handle("CREATE TABLE f (g INT, m REAL);")
        shell.handle("INSERT INTO f VALUES (1, 10.0), (2, 30.0);")
        shell.handle("SELECT g, Vpct(m) FROM f GROUP BY g;")
        assert "0.25" in self.output(shell)

    def test_error_reported_not_raised(self, shell):
        assert shell.handle("SELECT * FROM ghost;")
        assert "error:" in self.output(shell)

    def test_tables_and_schema(self, shell):
        shell.handle("CREATE TABLE t (a INT, PRIMARY KEY (a));")
        shell.handle("\\tables")
        shell.handle("\\schema t")
        text = self.output(shell)
        assert "  t" in text
        assert "a INTEGER (pk)" in text

    def test_plan_command(self, shell):
        shell.handle("CREATE TABLE f (g INT, m REAL);")
        shell.handle("INSERT INTO f VALUES (1, 1.0);")
        shell.handle("\\plan SELECT g, Vpct(m) FROM f GROUP BY g;")
        text = self.output(shell)
        assert "-- strategy: vertical" in text
        assert "CREATE TABLE" in text

    def test_strategy_command(self, shell):
        shell.handle("\\strategy vertical update")
        assert shell.strategy == VerticalStrategy(use_update=True)
        shell.handle("\\strategy horizontal FV")
        assert shell.strategy == HorizontalStrategy(source="FV")
        shell.handle("\\strategy auto")
        assert shell.strategy is None

    def test_strategy_command_refuses_an_unknown_word(self, shell):
        shell.handle("\\strategy vertical update")
        shell.handle("\\strategy vertical updte")
        assert "error: usage: \\strategy" in self.output(shell)
        assert shell.strategy == VerticalStrategy(use_update=True)

    def test_load_command(self, shell):
        shell.handle("\\load employee 500")
        assert "loaded employee (500 rows)" in self.output(shell)
        shell.handle("SELECT count(*) FROM employee;")
        assert "500" in self.output(shell)

    def test_stats_command(self, shell):
        shell.handle("CREATE TABLE t (a INT);")
        shell.handle("\\stats")
        assert "statements=" in self.output(shell)

    def test_quit(self, shell):
        assert shell.handle("\\quit") is False

    def test_unknown_command(self, shell):
        shell.handle("\\frobnicate")
        assert "unknown command" in self.output(shell)


class TestParseStrategy:
    def test_auto(self):
        assert _parse_strategy([]) is None
        assert _parse_strategy(["auto"]) is None

    def test_vertical_flags(self):
        strategy = _parse_strategy(["vertical", "update", "noindex"])
        assert strategy == VerticalStrategy(use_update=True,
                                            create_indexes=False)

    def test_spj(self):
        strategy = _parse_strategy(["horizontal", "spj", "fv"])
        assert strategy == HorizontalAggStrategy(source="FV")

    def test_bad_input(self):
        """An unknown or extra word is the usage error, never the
        default strategy."""
        for words in (["sideways"], ["vertical", "updte"],
                      ["vertical", "update", "x"],
                      ["horizontal", "f", "extra"], ["horizontal", "fh"],
                      ["horizontal", "spj", "x"],
                      ["horizontal", "spj", "f", "fv"],
                      ["auto", "vertical"]):
            with pytest.raises(ValueError, match="usage"):
                _parse_strategy(words)
