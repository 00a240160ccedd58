"""Shared summaries for sets of percentage queries (paper Section 6,
future work: "A set of percentage queries on the same table may be
efficiently evaluated using shared summaries").

:func:`run_percentage_batch` takes several percentage queries over the
same fact table, builds **one** shared summary -- an aggregation of
``F`` at the union of every query's grouping and BY columns, holding
one distributive base aggregate per distinct argument -- and rewrites
each query to read the summary instead of ``F``.  The fact table is
scanned once for the whole batch instead of once (or more) per query.

Only distributive terms can share (sum-based ``Vpct``/``Hpct``,
``sum``/``min``/``max``, and ``count`` rewritten to a sum of partial
counts); queries containing ``avg`` or ``count(DISTINCT ...)`` fall
back to individual evaluation, as does any query whose union grouping
would not actually reduce the data.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Optional

from repro.api.database import Database
from repro.core import common, model
from repro.core.execute import run_percentage_query
from repro.core.model import PercentageQuery, parse_percentage_query
from repro.core.validate import validate
from repro.engine.table import Table
from repro.sql import ast
from repro.sql.formatter import format_expr

_counter = itertools.count(1)

#: Per-database registry of kept summaries: signature -> summary table
#: name.  The signature embeds the fact table's *version* (see
#: :mod:`repro.engine.table`), so any DML on the fact table silently
#: invalidates its summaries.
_kept_summaries: "weakref.WeakKeyDictionary[Database, dict]" = \
    weakref.WeakKeyDictionary()


@dataclass
class BatchReport:
    """What evaluating a batch did."""

    results: list[Table]
    shared_groups: int = 0          # query groups that shared a summary
    fallback_queries: int = 0       # queries evaluated individually
    reused_summaries: int = 0       # kept summaries served from registry
    summary_rows: dict[str, int] = field(default_factory=dict)


def run_percentage_batch(db: Database, queries: list[str],
                         keep_summaries: bool = False) -> BatchReport:
    """Evaluate several percentage queries, sharing summaries where
    the queries allow it.  Results come back in input order."""
    parsed: list[PercentageQuery] = []
    for sql in queries:
        query = parse_percentage_query(sql)
        validate(query)
        parsed.append(query)

    groups: dict[tuple, list[int]] = {}
    for position, query in enumerate(parsed):
        key = _share_key(query)
        if key is not None:
            groups.setdefault(key, []).append(position)

    report = BatchReport(results=[None] * len(parsed))  # type: ignore
    shared_positions: set[int] = set()
    for key, positions in groups.items():
        if len(positions) < 2:
            continue
        summary = _SharedSummary.build(db, [parsed[p] for p in
                                            positions],
                                       allow_reuse=keep_summaries)
        if summary is None:
            continue
        report.shared_groups += 1
        if summary.reused:
            report.reused_summaries += 1
        report.summary_rows[summary.table] = summary.n_rows
        try:
            for position in positions:
                rewritten = summary.rewrite(parsed[position])
                report.results[position] = run_percentage_query(
                    db, rewritten)
                shared_positions.add(position)
        finally:
            if not keep_summaries:
                db.drop_table(summary.table, if_exists=True)
            elif summary.signature is not None:
                _kept_summaries.setdefault(db, {})[summary.signature] = \
                    summary.table

    for position, query in enumerate(parsed):
        if position not in shared_positions:
            report.fallback_queries += 1
            report.results[position] = run_percentage_query(db, query)
    return report


# ----------------------------------------------------------------------
def _share_key(query: PercentageQuery) -> Optional[tuple]:
    """Queries sharing a summary must read the same base table with the
    same filter and use only distributive terms."""
    if query.source_select is not None:
        return None
    for term in query.terms:
        if term.distinct or term.func in ("avg", "var", "stdev"):
            return None
    where = format_expr(query.where) if query.where is not None else ""
    return (query.table.lower(), where)


@dataclass
class _Base:
    """One base aggregate stored in the shared summary."""

    column: str
    func: str                    # aggregate applied on F
    refold: str                  # aggregate applied on the summary
    argument: Optional[ast.Expr]


class _SharedSummary:
    """The shared summary table plus the term-rewriting rules."""

    def __init__(self, table: str, n_rows: int,
                 bases: dict[tuple, _Base],
                 signature: Optional[tuple] = None,
                 reused: bool = False):
        self.table = table
        self.n_rows = n_rows
        self.signature = signature
        self.reused = reused
        self._bases = bases

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, db: Database, queries: list[PercentageQuery],
              allow_reuse: bool = False) -> Optional["_SharedSummary"]:
        union: list[str] = []
        for query in queries:
            for column in query.group_by:
                if column not in union:
                    union.append(column)
            for term in query.terms:
                for column in term.by_columns:
                    if column not in union:
                        union.append(column)
        if not union:
            return None

        bases: dict[tuple, _Base] = {}
        for query in queries:
            for term in query.terms:
                key = _base_key(term)
                if key not in bases:
                    bases[key] = _make_base(term, len(bases))

        first = queries[0]
        signature = None
        if db.has_table(first.table):
            # The fact table's version uniquely identifies its contents
            # (versions are never reused), so a kept summary built at
            # this version is valid exactly until the next DML.
            signature = (first.table.lower(),
                         db.table(first.table).version,
                         tuple(union), tuple(sorted(bases)),
                         format_expr(first.where)
                         if first.where is not None else "")
        if allow_reuse and signature is not None:
            registry = _kept_summaries.get(db, {})
            kept = registry.get(signature)
            if kept is not None and db.has_table(kept):
                return cls(kept, db.table(kept).n_rows, bases,
                           signature, reused=True)

        table = f"_shared{next(_counter)}"
        keys = common.cols(union)
        selects: list[ast.Expr] = list(keys)
        for base in bases.values():
            argument = common.STAR if base.argument is None \
                else base.argument
            selects.append(ast.SelectItem(
                common.call(base.func, argument), base.column))
        common.feedback(db, ast.CreateTableAs(table, common.select(
            selects, common.tables(first.table), first.where, keys)))
        n_rows = db.table(table).n_rows
        return cls(table, n_rows, bases, signature)

    # ------------------------------------------------------------------
    def rewrite(self, query: PercentageQuery) -> PercentageQuery:
        """The query re-based onto the summary table."""
        terms = []
        for term in query.terms:
            base = self._bases[_base_key(term)]
            # Preserve the column names the un-rewritten query would
            # produce: the label is what the generators use.
            alias = term.alias or term.label()
            terms.append(model.AggregateTerm(
                kind=term.kind,
                func=base.refold if term.kind == model.VERTICAL
                or term.kind == model.HAGG else term.func,
                argument=ast.ColumnRef(base.column),
                by_columns=term.by_columns,
                default=term.default,
                alias=alias,
                position=term.position))
        return PercentageQuery(
            table=self.table, group_by=query.group_by,
            dimensions=query.dimensions, terms=terms, where=None,
            sql=f"(shared-summary rewrite of: {query.sql})")


def _base_key(term: model.AggregateTerm) -> tuple:
    func = "sum" if term.kind in (model.VPCT, model.HPCT) \
        else term.func
    argument = format_expr(term.argument) if term.argument is not None \
        else "*"
    return (func, argument)


def _make_base(term: model.AggregateTerm, index: int) -> _Base:
    func = "sum" if term.kind in (model.VPCT, model.HPCT) \
        else term.func
    refold = {"sum": "sum", "count": "sum", "min": "min",
              "max": "max"}[func]
    return _Base(column=f"b{index}", func=func, refold=refold,
                 argument=term.argument)
