"""The result layout of a percentage query, stated once.

What a caller of the code generators is promised is the result
table's layout: the ``Fk``/``FV`` term columns, the ``Fj`` totals
computed bottom-up over the dimension lattice, and one ``FH`` column
per BY combination named by its values.  :func:`layout_of` decides
all of it from the fact table's schema alone -- never its rows -- and
every consumer reads that one statement: the vertical generator, the
horizontal CASE and SPJ generators, and the materialized views.

A horizontal term's column names depend on the BY combinations that
discovery finds; :meth:`Layout.names` turns them into names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core import model
from repro.core.naming import (NamingPolicy, abbreviate, cell_names,
                               uniquify)
from repro.engine.types import SQLType, infer_type
from repro.sql import ast


@dataclass(frozen=True)
class TermLayout:
    """One aggregate term's place in the result.

    ``stem`` is what the term's columns are named after: a plain or
    Vpct term's name before deduplication (its alias, else a name
    generated from its function and argument, abbreviated to the
    identifier limit), a horizontal term's label.  ``name`` is a plain
    or Vpct term's result column when no cell precedes it (exactly
    its name in a vertical query; in a horizontal query only
    :meth:`Layout.names` knows); ``prefix`` heads a horizontal term's
    cell names when the query has several horizontal terms.
    """

    term: model.AggregateTerm
    stem: str
    name: str
    prefix: str
    sql_type: SQLType
    totals: tuple[str, ...] = ()    # Vpct: D1..Dj, GROUP BY minus BY

    @property
    def kind(self) -> str:
        return self.term.kind


@dataclass(frozen=True)
class Layout:
    """The data-independent layout of one percentage query.

    ``terms`` follows the query's terms.  ``lattice`` lists the Vpct
    terms in ``Fj`` generation order -- finer totals first (Section
    3.1: "partial aggregations need to be computed bottom-up based on
    the dimension lattice") -- each with the term whose finer totals
    it re-aggregates, or None.  ``by_sets`` are the horizontal terms'
    distinct BY column sets in order of first appearance.
    """

    group_by: tuple[str, ...]
    terms: tuple[TermLayout, ...]
    lattice: tuple[tuple[int, Optional[int]], ...]
    by_sets: tuple[tuple[str, ...], ...]
    max_name_length: int

    def names(self, combos_by_term: Mapping[int, Sequence[tuple]],
              naming: NamingPolicy) -> list[list[str]]:
        """The non-key result column names, one list per term: a
        plain or Vpct term's one name, a horizontal term's cell name
        per BY combination (``combos_by_term`` is keyed by the term's
        select-list position).  One ``used`` set runs through them
        all in term order, so a cell named like a term, or a term
        like a cell, is made unique."""
        used = {c.lower() for c in self.group_by}
        out = []
        for t in self.terms:
            if t.term.is_horizontal:
                out.append(cell_names(
                    t.term.by_columns, combos_by_term[t.term.position],
                    naming, self.max_name_length, used, t.prefix))
            else:
                out.append([_claim(t.stem, used, self.max_name_length)])
        return out


def layout_of(catalog, query: model.PercentageQuery) -> Layout:
    """The layout of ``query`` over its fact table in ``catalog``
    (anything with ``.table(name)`` and ``.max_name_length``)."""
    limit = catalog.max_name_length
    multiple = len(query.horizontal_terms()) > 1
    used = {c.lower() for c in query.group_by}
    terms = []
    for term in query.terms:
        stem = term_stem(term, limit)
        if term.is_horizontal:
            name, prefix = "", f"{stem}_" if multiple else ""
        else:
            name, prefix = _claim(stem, used, limit), ""
        terms.append(TermLayout(
            term, stem, name, prefix,
            _result_type(catalog, query.table, term),
            _totals(term, query.group_by)))
    by_sets: list[tuple[str, ...]] = []
    for term in query.horizontal_terms():
        if term.by_columns not in by_sets:
            by_sets.append(term.by_columns)
    return Layout(tuple(query.group_by), tuple(terms), _lattice(terms),
                  tuple(by_sets), limit)


def term_stem(term: model.AggregateTerm, limit: int) -> str:
    """What ``term``'s result columns are named after (see
    :class:`TermLayout`); ``limit`` is the identifier limit."""
    if term.is_horizontal:
        return term.label()
    if term.alias:
        return term.alias
    if isinstance(term.argument, ast.ColumnRef):
        stem = term.argument.name
        if term.kind == model.VERTICAL:
            stem = f"{term.func}_{stem}"
    else:
        stem = f"{term.func}_{term.position + 1}"
    return abbreviate(stem, limit)


def _claim(stem: str, used: set[str], limit: int) -> str:
    name = uniquify(stem, used, limit)
    used.add(name.lower())
    return name


def _totals(term: model.AggregateTerm,
            group_by: tuple[str, ...]) -> tuple[str, ...]:
    """D1..Dj for a Vpct term: GROUP BY minus the BY columns; no BY
    clause means global totals (empty tuple)."""
    if term.kind != model.VPCT or not term.by_columns:
        return ()
    by = set(term.by_columns)
    return tuple(c for c in group_by if c not in by)


def _lattice(terms: list[TermLayout]
             ) -> tuple[tuple[int, Optional[int]], ...]:
    """Vpct terms by descending totals arity (stable), each sourcing
    the smallest already-generated term with an AST-equal argument and
    strictly finer totals."""
    vpct = [i for i, t in enumerate(terms) if t.kind == model.VPCT]
    lattice: list[tuple[int, Optional[int]]] = []
    for i in sorted(vpct, key=lambda i: -len(terms[i].totals)):
        mine = set(terms[i].totals)
        source: Optional[int] = None
        for j, _ in lattice:
            if terms[j].term.argument != terms[i].term.argument \
                    or not mine < set(terms[j].totals):
                continue
            if source is None or \
                    len(terms[j].totals) < len(terms[source].totals):
                source = j
        lattice.append((i, source))
    return tuple(lattice)


def _result_type(catalog, table: str,
                 term: model.AggregateTerm) -> SQLType:
    """The term's result column type.  Percentages are REAL; sums
    (Vpct's ``Fk`` numerator included) and averages are widened to
    REAL -- the UPDATE strategy overwrites the same column with a
    percentage; counts are INTEGER; min/max keep the argument type."""
    if term.kind in (model.VPCT, model.HPCT):
        return SQLType.REAL
    if term.func == "count":
        return SQLType.INTEGER
    if term.func in ("min", "max"):
        return _argument_type(catalog, table, term.argument)
    return SQLType.REAL


def _argument_type(catalog, table: str, expr: ast.Expr) -> SQLType:
    """Best-effort static type of an argument expression over
    ``table``: column references use the schema, literals their own
    type; any compound arithmetic is assumed REAL."""
    if isinstance(expr, ast.ColumnRef):
        schema = catalog.table(table).schema
        if schema.has_column(expr.name):
            return schema.column_type(expr.name)
        return SQLType.REAL
    if isinstance(expr, ast.Literal) and expr.value is not None:
        return infer_type(expr.value)
    return SQLType.REAL
