"""An interactive SQL shell for the engine with percentage-query
support.

Run with ``python -m repro``.  Statements ending in ';' execute
against an in-memory database; queries containing ``Vpct``/``Hpct``/
BY-extended aggregates are routed through the code generator
automatically (like the paper's front end would).

Shell commands:

* ``\\tables``                list tables
* ``\\schema NAME``          show a table's columns
* ``\\plan SQL``             show the generated plan for a percentage
  query without running it
* ``\\strategy vertical ...`` / ``\\strategy horizontal F|FV|SPJ``
  pin the evaluation strategy (``\\strategy auto`` resets)
* ``\\load employee|sales|transactionline|census [N]``
  generate one of the papers' synthetic tables
* ``\\stats``                cumulative engine counters
* ``\\quit``
"""

from __future__ import annotations

import sys
from typing import Optional

from repro import Database
from repro.api.display import render_table
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy, generate_plan,
                        run_percentage_query)
from repro.core.model import build_percentage_query
from repro.engine.table import Table
from repro.errors import ReproError
from repro.sql import ast
from repro.sql.parser import parse_statement

PROMPT = "repro> "
CONTINUATION = "   ... "


class Shell:
    """State and command dispatch for the interactive shell."""

    def __init__(self, db: Optional[Database] = None,
                 out=sys.stdout):
        self.db = db or Database(keep_history=True)
        self.out = out
        self.strategy = None  # None = let the optimizer choose

    # ------------------------------------------------------------------
    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    def handle(self, line: str) -> bool:
        """Process one complete input; returns False to exit."""
        stripped = line.strip()
        if not stripped:
            return True
        if stripped.startswith("\\"):
            return self._command(stripped)
        return self._sql(stripped.rstrip(";"))

    # ------------------------------------------------------------------
    def _command(self, line: str) -> bool:
        parts = line.split(None, 1)
        name = parts[0][1:].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        if name in ("quit", "q", "exit"):
            return False
        if name == "tables":
            for table in sorted(self.db.table_names()):
                self.write(f"  {table}")
            return True
        if name == "schema":
            return self._schema(argument)
        if name == "plan":
            return self._plan(argument.rstrip(";"))
        if name == "strategy":
            return self._strategy(argument)
        if name == "load":
            return self._load(argument)
        if name == "stats":
            stats = self.db.stats
            self.write(f"  statements={stats.statements} "
                       f"scanned={stats.rows_scanned} "
                       f"written={stats.rows_written} "
                       f"updated={stats.rows_updated} "
                       f"case_evals={stats.case_evaluations}")
            return True
        self.write(f"unknown command \\{name} (try \\quit, \\tables, "
                   f"\\schema, \\plan, \\strategy, \\load, \\stats)")
        return True

    def _schema(self, name: str) -> bool:
        if not name:
            self.write("usage: \\schema TABLE")
            return True
        try:
            schema = self.db.table(name).schema
        except ReproError as exc:
            self.write(f"error: {exc}")
            return True
        for column in schema.columns:
            marker = " (pk)" if column.name in schema.primary_key \
                else ""
            self.write(f"  {column.name} {column.sql_type}{marker}")
        return True

    def _plan(self, sql: str) -> bool:
        if not sql:
            self.write("usage: \\plan SELECT ... Vpct(...) ...")
            return True
        try:
            plan = generate_plan(self.db, sql, self.strategy)
        except ReproError as exc:
            self.write(f"error: {exc}")
            return True
        self.write(f"-- strategy: {plan.description}")
        self.write(plan.sql_script())
        return True

    def _strategy(self, argument: str) -> bool:
        words = argument.lower().split()
        try:
            self.strategy = _parse_strategy(words)
        except ValueError as exc:
            self.write(f"error: {exc}")
            return True
        label = "optimizer's choice" if self.strategy is None \
            else self.strategy.describe()
        self.write(f"strategy = {label}")
        return True

    def _load(self, argument: str) -> bool:
        from repro.datagen import (load_census, load_employee,
                                   load_sales, load_transaction_line)
        loaders = {"employee": (load_employee, 100_000),
                   "sales": (load_sales, 500_000),
                   "transactionline": (load_transaction_line, 100_000),
                   "census": (load_census, 50_000)}
        words = argument.split()
        if not words or words[0].lower() not in loaders:
            self.write(f"usage: \\load {'|'.join(loaders)} [N]")
            return True
        loader, default_n = loaders[words[0].lower()]
        n_rows = int(words[1]) if len(words) > 1 else default_n
        table = loader(self.db, n_rows)
        self.write(f"loaded {table.name} ({table.n_rows:,} rows)")
        return True

    # ------------------------------------------------------------------
    def _sql(self, sql: str) -> bool:
        try:
            result = self._execute(sql)
        except ReproError as exc:
            self.write(f"error: {exc}")
            return True
        if isinstance(result, Table):
            self.write(render_table(result))
        else:
            self.write(f"ok ({result} rows)")
        return True

    def _execute(self, sql: str):
        statement = parse_statement(sql)
        if isinstance(statement, ast.Select) and any(
                not isinstance(item.expr, ast.Star)
                and ast.contains_extended(item.expr)
                for item in statement.items):
            query = build_percentage_query(statement, sql)
            return run_percentage_query(self.db, query, self.strategy)
        return self.db.execute_statement(statement, sql)


_VERTICAL_FLAGS = frozenset({"update", "fj_from_f", "noindex", "single"})


def _parse_strategy(words: list[str]):
    """The strategy ``\\strategy`` names; any word it does not know,
    or one too many, is the usage error (never a silent default)."""
    head, rest = (words[0], words[1:]) if words else ("auto", [])
    if head in ("auto", "optimizer") and not rest:
        return None
    if head == "vertical" and set(rest) <= _VERTICAL_FLAGS:
        return VerticalStrategy(
            fj_from_fk="fj_from_f" not in rest,
            use_update="update" in rest,
            create_indexes="noindex" not in rest,
            single_statement="single" in rest)
    if head == "horizontal":
        source, *more = [w.upper() for w in rest] or ["F"]
        if source in ("F", "FV") and not more:
            return HorizontalStrategy(source=source)
        if source == "SPJ" and more in ([], ["F"], ["FV"]):
            return HorizontalAggStrategy(source=(more or ["F"])[0])
    raise ValueError(
        "usage: \\strategy auto | vertical [update|fj_from_f|noindex|"
        "single] | horizontal F|FV | horizontal SPJ [F|FV]")


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point: read statements from stdin until EOF or \\quit."""
    shell = Shell()
    shell.write("repro SQL shell -- Vpct()/Hpct() ready; \\quit to "
                "exit, \\load to generate paper data sets")
    buffer: list[str] = []
    while True:
        try:
            prompt = CONTINUATION if buffer else PROMPT
            line = input(prompt)
        except EOFError:
            break
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            if not shell.handle(stripped):
                break
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(buffer)
            buffer = []
            if not shell.handle(statement):
                break
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
