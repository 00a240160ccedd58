"""Generate the OLAP-extensions equivalent of a percentage query.

Section 4.2 compares the proposed aggregations against "queries using
available OLAP extensions in SQL ... the sum() window function and the
OVER/PARTITION BY clauses.  In this case the optimizer groups rows and
computes aggregates using its own temporary tables and indexes.  We
have no control over these temporary tables."

The baseline query computes, for each detail row of ``F``, the windowed
fine total and the windowed coarse total, divides them, and collapses
duplicates with DISTINCT::

    SELECT DISTINCT D1, ..., Dk,
           sum(A) OVER (PARTITION BY D1, ..., Dk)
         / sum(A) OVER (PARTITION BY D1, ..., Dj)
    FROM F;

Both window passes run over the full detail table and the DISTINCT
re-sorts it -- exactly the cost structure that makes the OLAP form an
order of magnitude slower in Table 6 (the engine's window operator
charges the extra materialization, see
:mod:`repro.engine.window`).

The result set matches ``Vpct`` row for row, which is the paper's
ground rule for the comparison ("each query with the same parameters
produces the same answer set").
"""

from __future__ import annotations

from repro.api.database import Database
from repro.core import model
from repro.core.model import PercentageQuery, parse_percentage_query
from repro.engine.table import Table
from repro.errors import PercentageQueryError
from repro.sql.formatter import format_expr, quote_ident


def generate_olap_percentage_query(query: PercentageQuery | str) -> str:
    """The single-statement window-function rendition of a Vpct query."""
    if isinstance(query, str):
        query = parse_percentage_query(query)
    terms = query.vertical_pct_terms()
    if not terms:
        raise PercentageQueryError(
            "the OLAP baseline covers vertical percentage queries "
            "(Vpct); horizontal form needs pivoting, which the OLAP "
            "extensions do not provide")
    if query.source_select is not None:
        raise PercentageQueryError(
            "materialize the fact table first (multi-table FROM)")

    fine = _column_list(query.group_by)
    selects = [fine] if fine else []
    for term in query.terms:
        arg = term.argument_sql()
        if term.kind == model.VPCT:
            by = set(term.by_columns)
            totals = tuple(c for c in query.group_by if c not in by) \
                if term.by_columns else ()
            coarse = _column_list(totals)
            fine_window = (f"sum({arg}) OVER (PARTITION BY {fine})")
            coarse_window = f"sum({arg}) OVER (PARTITION BY {coarse})" \
                if coarse else f"sum({arg}) OVER ()"
            selects.append(
                f"CASE WHEN {coarse_window} <> 0 THEN "
                f"{fine_window} / {coarse_window} ELSE NULL END")
        else:
            # Plain aggregates ride along as windows at the fine level.
            distinct = "DISTINCT " if term.distinct else ""
            inner = arg if term.argument is not None else "*"
            selects.append(f"{term.func}({distinct}{inner}) "
                           f"OVER (PARTITION BY {fine})")
    sql = "SELECT DISTINCT " + ", ".join(selects) + f" FROM {query.table}"
    if query.where is not None:
        sql += f" WHERE {format_expr(query.where)}"
    if fine:
        sql += f" ORDER BY {fine}"
    return sql


def _column_list(columns) -> str:
    return ", ".join(quote_ident(c) for c in columns)


def run_olap_percentage_query(db: Database,
                              query: PercentageQuery | str) -> Table:
    """Execute the OLAP-extensions rendition and return its rows."""
    sql = generate_olap_percentage_query(query)
    result = db.execute(sql)
    if not isinstance(result, Table):  # pragma: no cover - defensive
        raise PercentageQueryError("the OLAP query returned no rows")
    return result
