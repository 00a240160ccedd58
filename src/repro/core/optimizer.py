"""Strategy selection: the paper's optimization recommendations as
executable rules.

Vertical (Section 4.1): "we recommend creating indexes on the common
subkey of Fk and Fj, using INSERT instead of UPDATE to compute FV,
specially when |FV| ~ |F|, and computing Fj from Fk."

Horizontal (Section 4.1, Table 5): "we recommend computing FH directly
from F when there are no more than two columns in the list
Dj+1, ..., Dk and each of them has low selectivity, and computing FH
from FV using Vpct() when there are three or more grouping columns or
when the grouping columns have high selectivity."

Selectivity is measured with ``count(DISTINCT column)`` probes against
the fact table -- the kind of statistic a real optimizer keeps anyway.
A probe is a real statement, charged its scan on the ledger; the engine
answers it from the column's dictionary encoding, which its memo keeps
(docs/engine_internals.md, "Encoding memos"), so beyond the scan's
charge it costs the statement's text, parse and plan, not a pass that
ranks the rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.api.database import Database
from repro.core import common, model
from repro.core.hagg import HorizontalAggStrategy
from repro.core.horizontal import HorizontalStrategy
from repro.core.naming import NamingPolicy
from repro.core.vertical import VerticalStrategy
from repro.sql import ast


#: A BY column with more distinct values than this counts as
#: high-selectivity (dweek=7 and monthNo=12 are low; dept=100,
#: store=100 and age=100 are high in the paper's data sets).
DEFAULT_SELECTIVITY_THRESHOLD = 50


def choose_vertical_strategy(db: Database,
                             query: model.PercentageQuery
                             ) -> VerticalStrategy:
    """The paper's recommended vertical strategy (Table 4 column (1))."""
    return VerticalStrategy(fj_from_fk=True, use_update=False,
                            create_indexes=True, matching_indexes=True)


def choose_horizontal_strategy(
        db: Database, query: model.PercentageQuery,
        threshold: int = DEFAULT_SELECTIVITY_THRESHOLD,
        naming: NamingPolicy | None = None) -> HorizontalStrategy:
    """Pick direct-from-F versus indirect-via-FV per the paper's rule."""
    naming = naming or NamingPolicy()
    # First-appearance query order, de-duplicated: the probe loop
    # below stops at the first high-selectivity column, so its logical
    # I/O must not depend on set (hash-seed) iteration order.
    by_columns = list(dict.fromkeys(
        column for term in query.horizontal_terms()
        for column in term.by_columns))
    distinct_ok = not any(
        t.distinct or t.func in ("var", "stdev")
        for t in query.terms)

    use_direct = True
    if len(by_columns) > 2:
        use_direct = False
    else:
        for column in by_columns:
            if column_cardinality(db, query, column) > threshold:
                use_direct = False
                break
    if not use_direct and not distinct_ok:
        # count(DISTINCT ...) is not distributive; FV cannot serve it.
        use_direct = True
    return HorizontalStrategy(source="F" if use_direct else "FV",
                              vertical=choose_vertical_strategy(db,
                                                                query),
                              naming=naming)


def alternate_strategy(
        db: Database, query: model.PercentageQuery,
        strategy: Union[VerticalStrategy, HorizontalStrategy,
                        HorizontalAggStrategy],
) -> Optional[Union[VerticalStrategy, HorizontalStrategy,
                    HorizontalAggStrategy]]:
    """The paper's *other* evaluation route for the same query.

    Used by the resilient runner when a plan dies with a
    fallback-eligible resource error: the horizontal strategies flip
    between direct-from-F and indirect-via-FV (Table 5's two columns),
    and a vertical strategy falls back to the recommended knobs -- or,
    if those already failed, to the UPDATE form that materializes one
    fewer temp table (Table 4 column (3)).  Knobs that change the
    *result* (``missing_rows``, naming) are preserved; only execution
    routes change.  Returns None when no alternate route can serve the
    query (e.g. FV cannot evaluate DISTINCT/var/stdev terms).
    """
    distributive = not any(t.distinct or t.func in ("var", "stdev")
                           for t in query.terms)
    if isinstance(strategy, HorizontalAggStrategy):
        if strategy.source == "F":
            if not distributive:
                return None
            return replace(strategy, source="FV")
        return replace(strategy, source="F")
    if isinstance(strategy, HorizontalStrategy):
        if strategy.source == "F":
            if not distributive:
                return None
            return replace(strategy, source="FV")
        return replace(strategy, source="F")
    if isinstance(strategy, VerticalStrategy):
        recommended = replace(choose_vertical_strategy(db, query),
                              missing_rows=strategy.missing_rows)
        if strategy != recommended:
            return recommended
        return replace(recommended, use_update=True,
                       single_statement=False)
    return None


def column_cardinality(db: Database, query: model.PercentageQuery,
                       column: str) -> int:
    """``count(DISTINCT column)`` over the fact table (the optimizer's
    selectivity probe)."""
    if not db.has_table(query.table):
        return 0
    rows = common.feedback(db, common.select(
        [common.call("count", ast.ColumnRef(column), distinct=True)],
        common.tables(query.table))).to_rows()
    return int(rows[0][0])
