"""A fluent builder for percentage queries.

For callers who prefer constructing queries programmatically over
writing the extended SQL syntax::

    from repro.api.percentage import PercentageQueryBuilder

    result = (PercentageQueryBuilder(db)
              .from_table("sales")
              .group_by("state", "city")
              .vpct("salesAmt", by=["city"])
              .run())

The builder assembles the extended-syntax SQL text and hands it to
:func:`repro.core.run_percentage_query`, so both entry points share one
validation and generation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.api.database import Database
from repro.engine.table import Table
from repro.errors import PercentageQueryError
from repro.sql.formatter import format_literal, quote_ident


@dataclass
class _BuilderTerm:
    func: str
    argument: str
    by: tuple[str, ...]
    default: Optional[Any] = None
    distinct: bool = False
    alias: Optional[str] = None

    def render(self) -> str:
        inner = "DISTINCT " if self.distinct else ""
        inner += self.argument
        if self.by:
            inner += " BY " + ", ".join(quote_ident(c) for c in self.by)
        if self.default is not None:
            inner += f" DEFAULT {format_literal(self.default)}"
        text = f"{self.func}({inner})"
        if self.alias:
            text += f" AS {quote_ident(self.alias)}"
        return text


@dataclass
class PercentageQueryBuilder:
    """Composable percentage-query construction."""

    db: Database
    _table: str = ""
    _group_by: tuple[str, ...] = ()
    _terms: list[_BuilderTerm] = field(default_factory=list)
    _where: Optional[str] = None

    # ------------------------------------------------------------------
    def from_table(self, name: str) -> "PercentageQueryBuilder":
        self._table = name
        return self

    def group_by(self, *columns: str) -> "PercentageQueryBuilder":
        self._group_by = tuple(columns)
        return self

    def where(self, condition: str) -> "PercentageQueryBuilder":
        """A raw SQL filter on the fact table."""
        self._where = condition
        return self

    def vpct(self, argument: str, by: Sequence[str] = (),
             alias: Optional[str] = None) -> "PercentageQueryBuilder":
        """Add a vertical percentage term."""
        self._terms.append(_BuilderTerm("Vpct", argument, tuple(by),
                                        alias=alias))
        return self

    def hpct(self, argument: str, by: Sequence[str],
             alias: Optional[str] = None) -> "PercentageQueryBuilder":
        """Add a horizontal percentage term."""
        self._terms.append(_BuilderTerm("Hpct", argument, tuple(by),
                                        alias=alias))
        return self

    def hagg(self, func: str, argument: str, by: Sequence[str],
             default: Optional[Any] = None, distinct: bool = False,
             alias: Optional[str] = None) -> "PercentageQueryBuilder":
        """Add a generalized horizontal aggregate term."""
        self._terms.append(_BuilderTerm(func, argument, tuple(by),
                                        default=default,
                                        distinct=distinct, alias=alias))
        return self

    def aggregate(self, func: str, argument: str = "*",
                  distinct: bool = False,
                  alias: Optional[str] = None) -> "PercentageQueryBuilder":
        """Add a plain vertical aggregate term."""
        self._terms.append(_BuilderTerm(func, argument, (),
                                        distinct=distinct, alias=alias))
        return self

    # ------------------------------------------------------------------
    def sql(self) -> str:
        """The extended-syntax SQL this builder represents."""
        if not self._table:
            raise PercentageQueryError("from_table() was never called")
        if not self._terms:
            raise PercentageQueryError("add at least one term")
        items = [quote_ident(c) for c in self._group_by]
        items += [t.render() for t in self._terms]
        text = ("SELECT " + ", ".join(items)
                + f" FROM {quote_ident(self._table)}")
        if self._where:
            text += f" WHERE {self._where}"
        if self._group_by:
            text += " GROUP BY " + ", ".join(quote_ident(c)
                                             for c in self._group_by)
        return text

    def plan(self, strategy=None):
        """Generate (but do not run) the evaluation plan."""
        from repro.core import generate_plan
        return generate_plan(self.db, self.sql(), strategy)

    def run(self, strategy=None) -> Table:
        """Generate, execute and return the result table."""
        from repro.core import run_percentage_query
        return run_percentage_query(self.db, self.sql(), strategy)
