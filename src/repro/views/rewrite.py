"""Deriving view results from state, and matching queries to views.

Derivation replicates the engine's own evaluation strategies *column
by column*, in arrays, so a view-answered read is bit-identical to a
recompute.  The result rows stand in the group order of the engine's
grouping core over the live keys (NULL first, NaN last): the
factorize order a recompute's GROUP BY gives.

* **plain** group-by -- select items in position order, each a take
  of a key or measure column; raw kernel result types.
* **vertical** (``Vpct``) -- the default join-insert strategy: REAL
  fine sums (Fk), denominators summed through the fj lattice with the
  engine's own grouping core and ``sum`` kernel (coarser totals sum
  the smallest finer total with the same argument, in its sorted-key
  order -- the exact float addend order the engine's ``sum(total)
  FROM fj GROUP BY ...`` consumes), the NULL-safe division of
  :func:`~repro.engine.kernels.kernel_percentage`, result ordered by
  the full GROUP BY.
* **horizontal** (``Hpct``/``Hagg``) -- the direct (source=F)
  strategy: combinations are the grouped BY columns of the live fine
  slots (the sorted DISTINCT BY-tuples of WHERE-passing rows); each
  term scatters its fine values into a combinations x rows block
  (absent combination 0 for Hpct / NULL for Hagg, zero-or-NULL
  denominator nulls the Hpct row, DEFAULT coalesce), declared cell
  types.

:func:`derive_delta` is the selective path: when a write births or
retracts no group at any level (so no combination changes either) only
the result rows whose numerator group was touched -- or, for Vpct,
whose denominator group changed -- are re-derived; every other row's
column data is reused bit-for-bit.  It groups nothing: the row order,
and for Vpct the denominator groups, for Hpct/Hagg the combinations,
cached by the last full derive still hold.  Vpct fine sums are read
off the primary level in row order by every derive, never cached.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

import numpy as np

from repro.core import model
from repro.core.naming import NamingPolicy
from repro.engine.column import ColumnData
from repro.engine.groupby import group_rows
from repro.engine.kernels import kernel_percentage, kernel_sum
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.sql import ast
from repro.sql.formatter import format_select
from repro.views.state import (PLAIN, VERTICAL, Combinations, DeltaInfo,
                               Denominators, ViewDefinition, ViewState,
                               patched)


# ----------------------------------------------------------------------
# Full derivation
# ----------------------------------------------------------------------
def derive(definition: ViewDefinition, state: ViewState) -> Table:
    """Derive the full result table; refreshes the derive caches."""
    level = state.levels[0]
    live = level.live()
    rank = group_rows([key.take(live) for key in level.keys],
                      len(live)).group_ids
    order = np.empty_like(live)
    order[rank] = live
    state.order = order
    state.row_of_slot = np.full(level.n_slots, -1, dtype=np.int64)
    state.row_of_slot[live] = rank
    if definition.kind == PLAIN:
        named = list(zip(definition.plain_names,
                         _plain_columns(definition, level, order)))
    else:
        keys = [key.take(order) for key in level.keys]
        named = list(zip(definition.group_by, keys))
        if definition.kind == VERTICAL:
            _cache_vertical(definition, state, keys)
            rows = np.arange(len(order), dtype=np.int64)
            for (_, _, column), t in zip(
                    _vertical_cells(definition, state, order, rows,
                                    rows),
                    definition.layout.terms):
                named.append((t.name, column))
        else:
            state.combos = _combinations(definition, state)
            names = definition.layout.names(
                {t.term.position: state.combos[plan.level - 1].values
                 for t, plan in zip(definition.layout.terms,
                                    definition.hplans)
                 if plan.level is not None}, NamingPolicy())
            named += zip(chain.from_iterable(names),
                         _horizontal_columns(definition, state, order))
    table = Table.from_columns(definition.name, named)
    state.result = table
    state.rederived = len(order)
    return table


# ----------------------------------------------------------------------
# Selective re-derivation
# ----------------------------------------------------------------------
def derive_delta(definition: ViewDefinition, state: ViewState,
                 delta: DeltaInfo) -> Table:
    """Patch only changed rows of the previous result when no group
    was born or retracted; otherwise fall back to a full derive."""
    previous = state.result
    if previous is None or not delta.stable:
        return derive(definition, state)
    slots = delta.touched
    state.rederived = 0
    if not len(slots):
        return previous
    rows = state.row_of_slot[slots]
    if definition.kind == VERTICAL:
        patches = _vertical_cells(definition, state, slots, rows,
                                  _widen(state, rows))
    elif definition.kind == PLAIN:
        patches = [(pos, rows, column) for pos, column in enumerate(
            _plain_columns(definition, state.levels[0], slots))]
    else:
        first = len(definition.group_by)
        patches = [(first + i, rows, column) for i, column in enumerate(
            _horizontal_columns(definition, state, slots))]
    columns = [(col_def.name, previous.column(col_def.name))
               for col_def in previous.schema.columns]
    rederived = np.zeros(previous.n_rows, dtype=bool)
    for pos, at, small in patches:
        name, data = columns[pos]
        columns[pos] = (name, patched(data, at, small))
        rederived[at] = True
    table = Table.from_columns(definition.name, columns)
    state.result = table
    state.rederived = int(np.count_nonzero(rederived))
    return table


def _widen(state, rows: np.ndarray) -> np.ndarray:
    """The touched result rows plus every row sharing a denominator
    group with one of them: those may see a new percentage."""
    from repro.views import maintenance

    if maintenance.INJECT_BUG == "views-stale-denominator":
        return rows
    widened = np.zeros(state.result.n_rows, dtype=bool)
    widened[rows] = True
    for groups in state.denominators.values():
        widened |= np.isin(groups.rows, groups.rows[rows])
    return np.flatnonzero(widened)


# ----------------------------------------------------------------------
# Plain cells
# ----------------------------------------------------------------------
def _plain_columns(definition, level, slots) -> list[ColumnData]:
    """Plain views emit keys and aggregates in select-item order."""
    return [(level.keys if kind == "key" else level.values)[idx]
            .take(slots) for kind, idx in definition.plain_items]


# ----------------------------------------------------------------------
# Vertical (Vpct) cells, over the cached row order
# ----------------------------------------------------------------------
def _cache_vertical(definition, state, key_columns) -> None:
    """Denominator groups, per Vpct term.

    Each term's totals group the result rows by its totals columns
    with the engine's grouping core; a term sourced through the fj
    lattice groups its source's denominator groups instead, which are
    in sorted-key order -- the fj table's row order."""
    group_by = definition.group_by
    terms = definition.layout.terms
    denominators: dict[int, Denominators] = {}
    key_sets: dict[int, list[ColumnData]] = {}
    for plan_idx, source_idx in definition.layout.lattice:
        plan = terms[plan_idx]
        if source_idx is None:
            grouping = group_rows(
                [key_columns[group_by.index(c)] for c in plan.totals],
                len(state.order))
            rows = grouping.group_ids
        else:
            source = terms[source_idx]
            grouping = group_rows(
                [key_sets[source_idx][source.totals.index(c)]
                 for c in plan.totals],
                denominators[source_idx].n_groups)
            rows = grouping.group_ids[denominators[source_idx].rows]
        denominators[plan_idx] = Denominators(
            rows, grouping.n_groups, source_idx, grouping.group_ids)
        key_sets[plan_idx] = grouping.key_columns()
    state.denominators = denominators


def _vertical_cells(definition, state, slots, rows, widened):
    """``(position, rows, column)`` per term: plain terms at the
    ``rows`` of ``slots``, Vpct terms at the ``widened`` rows, divided
    by denominators summed from the fine sums in row order."""
    level = state.levels[0]
    n_keys = len(definition.group_by)
    sums = {idx: level.values[idx].take(state.order).cast(SQLType.REAL)
            for idx, t in enumerate(definition.layout.terms)
            if t.kind == model.VPCT}
    totals: dict[int, ColumnData] = {}
    for plan_idx, _ in definition.layout.lattice:
        groups = state.denominators[plan_idx]
        addends = sums[plan_idx] if groups.source is None \
            else totals[groups.source]
        totals[plan_idx] = kernel_sum(
            addends.values, addends.nulls, SQLType.REAL,
            groups.addends, groups.n_groups)
    cells = []
    for idx, t in enumerate(definition.layout.terms):
        if t.kind != model.VPCT:
            cells.append((n_keys + idx, rows, level.values[idx]
                          .take(slots).cast(t.sql_type)))
            continue
        groups = state.denominators[idx].rows[widened]
        cells.append((n_keys + idx, widened, kernel_percentage(
            sums[idx].take(widened), totals[idx].take(groups))))
    return cells


# ----------------------------------------------------------------------
# Horizontal (Hpct/Hagg) cells
# ----------------------------------------------------------------------
def _combinations(definition, state) -> list[Combinations]:
    """Per fine level: its live slots' BY combinations, grouped and
    ordered by the engine's grouping core, and the coarse slot that
    holds each live fine slot's GROUP BY key."""
    n_keys = len(definition.group_by)
    coarse = state.levels[0]
    coarse_live = coarse.live()
    out = []
    for fine in state.levels[1:]:
        live = fine.live()
        by = group_rows([key.take(live) for key in fine.keys[n_keys:]],
                        len(live))
        firsts = live[by.first_rows()]
        values = list(zip(*(key.take(firsts).to_pylist()
                            for key in fine.keys[n_keys:])))
        both = group_rows(
            [ColumnData.concat([mine.take(coarse_live), theirs.take(live)])
             for mine, theirs in zip(coarse.keys, fine.keys)],
            len(coarse_live) + len(live))
        slot_of = np.empty(both.n_groups, dtype=np.int64)
        slot_of[both.group_ids[:len(coarse_live)]] = coarse_live
        out.append(Combinations(
            live, slot_of[both.group_ids[len(coarse_live):]],
            by.group_ids, values))
    return out


def _horizontal_columns(definition, state, slots) -> list[ColumnData]:
    """The non-key columns at the coarse ``slots``, in column order.

    A plain term is a take of its coarse measure.  An Hpct/Hagg term
    scatters its fine values into a combinations x rows block, one
    column per combination: Hpct divides by the coarse sums (an absent
    combination is 0), Hagg leaves an absent combination NULL and then
    its DEFAULT, cast to the declared cell type."""
    coarse = state.levels[0]
    k = len(slots)
    row_at = np.full(coarse.n_slots, -1, dtype=np.int64)
    row_at[slots] = np.arange(k, dtype=np.int64)
    columns = []
    for t, plan in zip(definition.layout.terms, definition.hplans):
        if t.kind == model.VERTICAL:
            columns.append(coarse.values[plan.coarse_measure]
                           .take(slots).cast(t.sql_type))
            continue
        combos = state.combos[plan.level - 1]
        n_combos = len(combos.values)
        rows = row_at[combos.coarse]
        here = rows >= 0
        cells = combos.ids[here] * k + rows[here]
        fine = state.levels[plan.level].values[plan.fine_measure] \
            .take(combos.fine[here])
        if t.kind == model.HPCT:
            numerators = ColumnData.constant(SQLType.REAL, 0.0,
                                             n_combos * k)
            numerators.values[cells] = fine.values
            numerators.nulls[cells] = fine.nulls
            block = kernel_percentage(
                numerators, coarse.values[plan.coarse_measure]
                .take(np.tile(slots, n_combos)))
            absent = np.ones(n_combos * k, dtype=bool)
            absent[cells] = False
            block.values[absent] = 0.0
        else:
            block = ColumnData.all_null(t.sql_type, n_combos * k)
            block.values[cells] = fine.values
            block.nulls[cells] = fine.nulls
            default = t.term.default
            if default is not None and block.nulls.any():
                block.values[block.nulls] = ColumnData.constant(
                    t.sql_type, default, 1).values[0]
                block.nulls[:] = False
        columns += [ColumnData(block.sql_type,
                               block.values[c * k:(c + 1) * k],
                               block.nulls[c * k:(c + 1) * k])
                    for c in range(n_combos)]
    return columns


# ----------------------------------------------------------------------
# Query matching
# ----------------------------------------------------------------------
def match_view(catalog, select) -> Optional[object]:
    """The materialized view whose canonical definition text equals
    this SELECT's, if any (whole-statement structural rewrite).  Every
    definition groups one base table, so nothing else is printed."""
    from_ = select.from_
    if not select.group_by or from_ is None or from_.joins \
            or not isinstance(from_.first, ast.TableRef):
        return None
    candidates = catalog.matviews_on(from_.first.name)
    canonical = format_select(select) if candidates else None
    return next((mv for mv in candidates
                 if mv.definition.sql == canonical), None)
