"""Generated evaluation plans: ordered standard-SQL statement lists.

A :class:`GeneratedPlan` is what the code generator hands back -- the
Python equivalent of the SQL script the paper's Java program sent to
Teradata.  Each step holds a statement *tree*, which the runner hands
to the engine as is; its SQL text is printed from the tree only when
something reads it (``step.sql``, ``plan.sql_script()``).  Plans are
replayable against any :class:`~repro.api.database.Database`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sql import ast
from repro.sql.formatter import format_statement


#: Step purposes, used by tests and by the harness to attribute time.
MATERIALIZE = "materialize-view"
CREATE_TEMP = "create-temp"
AGGREGATE_FK = "aggregate-fk"
AGGREGATE_FJ = "aggregate-fj"
INDEX = "index"
DIVIDE = "divide"
UPDATE_DIVIDE = "update-divide"
DISCOVER = "discover"
TRANSPOSE = "transpose"
SPJ_PROJECT = "spj-project"
ASSEMBLE = "assemble"
MISSING_ROWS = "missing-rows"
RESULT = "result"


@dataclass
class GeneratedStep:
    """One statement of a plan."""

    statement: ast.Statement
    purpose: str

    @property
    def sql(self) -> str:
        """The statement's text, printed when read."""
        return format_statement(self.statement)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"-- {self.purpose}\n{self.sql};"


@dataclass
class GeneratedPlan:
    """An executable plan for one percentage query.

    Attributes:
        steps: statements to run, in order.
        result_table: temp table holding the final result, or None
            when ``result_statement`` returns it directly.
        result_statement: final SELECT returning the result rows
            (always set; reads ``result_table`` when one exists);
            ``result_select`` is its text.
        temp_tables: every temporary table the plan creates, in
            creation order (dropped by the runner unless kept).
        description: human-readable strategy summary.
        strategy: the strategy object that produced the plan.
        discovered: per-term discovered BY-combination lists (set by
            horizontal generators; empty for vertical plans).
    """

    steps: list[GeneratedStep] = field(default_factory=list)
    result_table: Optional[str] = None
    result_statement: Optional[ast.Select] = None
    temp_tables: list[str] = field(default_factory=list)
    description: str = ""
    strategy: Any = None
    discovered: dict[int, list[tuple]] = field(default_factory=dict)

    @property
    def result_select(self) -> str:
        """The result statement's text, printed when read."""
        if self.result_statement is None:
            return ""
        return format_statement(self.result_statement)

    # ------------------------------------------------------------------
    def add(self, statement: ast.Statement, purpose: str) -> None:
        self.steps.append(GeneratedStep(statement, purpose))

    def create_temp(self, name: str, columns, primary_key) -> None:
        """Add the CREATE TABLE of temp table ``name`` and record it for
        cleanup."""
        self.add(ast.CreateTable(name, ast.column_runs(columns),
                                 primary_key), CREATE_TEMP)
        self.temp_tables.append(name)

    def extend(self, other: "GeneratedPlan") -> None:
        """Splice another plan's steps and temp tables in front of this
        plan's own bookkeeping (used when the FV step is itself a
        generated vertical plan)."""
        self.steps.extend(other.steps)
        self.temp_tables.extend(other.temp_tables)

    def sql_script(self) -> str:
        """The full plan as annotated SQL text."""
        lines = [str(step) for step in self.steps]
        if self.result_statement is not None:
            lines.append(f"-- {RESULT}\n{self.result_select};")
        return "\n".join(lines)

    def statement_count(self) -> int:
        return len(self.steps) + (self.result_statement is not None)


_counter = itertools.count(1)


def fresh_prefix(tag: str) -> str:
    """A unique temp-table prefix (``_vp3``, ``_hp7``, ...)."""
    return f"_{tag}{next(_counter)}"


_short = itertools.count(1)


def temp_name(prefix: str, role: str, limit: int) -> str:
    """The temp table ``{prefix}_{role}`` (``_hp7_fh2``), or -- when
    that is longer than the identifier limit ``limit``, as the
    process's plan count or a partition count grows -- ``_t`` and a
    fresh hex number in its place: a temp table is named only by the
    plan that makes it."""
    name = f"{prefix}_{role}"
    return name if len(name) <= limit else f"_t{next(_short):x}"
