"""Deriving view results from state, and matching queries to views.

Derivation replicates the engine's own evaluation strategies *column
by column* so a view-answered read is bit-identical to a recompute:

* **plain** group-by -- select items in position order, factorize row
  order (sorted keys, NULL first / NaN last), raw kernel result types.
* **vertical** (``Vpct``) -- the default join-insert strategy: REAL
  fine sums (Fk), denominators summed through the fj lattice with the
  engine's own grouping core and ``sum`` kernel (coarser totals sum
  the smallest finer total with the same argument, in its sorted-key
  order -- the exact float addend order the engine's ``sum(total)
  FROM fj GROUP BY ...`` consumes), the three-way NULL/zero-denominator
  CASE division in arrays, result ordered by the full GROUP BY.
* **horizontal** (``Hpct``/``Hagg``) -- the direct (source=F)
  strategy: combinations discovered as sorted DISTINCT BY-tuples of
  WHERE-passing rows, CASE cells (absent combination 0 for Hpct /
  NULL for Hagg, zero-or-NULL denominator nulls the Hpct row, count
  guarded on match existence, DEFAULT coalesce), declared cell types.

:func:`derive_delta` is the selective path: when a DML changes no
group's existence (no births/deaths, and for horizontal views no
combination changes) only the result rows whose numerator group was
touched -- or, for Vpct, whose denominator group changed -- are
re-derived; every other row's column data is reused bit-for-bit.  It
sorts nothing: the row order, and for Vpct the fine sums and
denominator groups, cached by the last full derive still hold, so its
per-slot Python work is for the touched slots only and the rest is
O(groups) numpy.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core import common, model
from repro.core.naming import NamingPolicy, combo_column_name
from repro.engine.column import ColumnData
from repro.engine.groupby import group_rows
from repro.engine.kernels import kernel_sum
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.sql.formatter import format_select
from repro.views.state import (HORIZONTAL, PLAIN, VERTICAL, DeltaInfo,
                               Denominators, ViewDefinition, ViewState,
                               normalize_key, sort_key)


# ----------------------------------------------------------------------
# Full derivation
# ----------------------------------------------------------------------
def derive(definition: ViewDefinition, state: ViewState) -> Table:
    """Derive the full result table; refreshes the derive caches."""
    level = state.levels[0]
    order = level.ordered_slots()
    state.row_of_slot = np.full(level.n_slots, -1, dtype=np.int64)
    state.row_of_slot[order] = np.arange(len(order), dtype=np.int64)
    named = _key_columns(definition, state, order)
    if definition.kind == PLAIN:
        named = _interleave_plain(definition, named,
                                  _cells(definition, state, order))
    elif definition.kind == VERTICAL:
        _cache_vertical(definition, state, order,
                        [column for _, column in named])
        rows = np.arange(len(order), dtype=np.int64)
        for (_, _, column), plan in zip(
                _vertical_cells(definition, state, order, rows, rows),
                definition.vplans):
            named.append((plan.name, column))
    else:
        state.combos = _discover_combos(definition, state)
        for (_, sql_type, values), name in zip(
                _cells(definition, state, order),
                _cell_names(definition, state)):
            named.append((name, ColumnData.from_values(sql_type,
                                                       values)))
    table = Table.from_columns(definition.name, named)
    state.result = table
    state.rederived = len(order)
    return table


def _key_columns(definition, state, order) -> list:
    level = state.levels[0]
    named = []
    if definition.kind == PLAIN:
        return named
    for i, column in enumerate(definition.group_by):
        values = [level.keys[s][i] for s in order]
        named.append((column, ColumnData.from_values(
            definition.key_types[i], values)))
    return named


def _interleave_plain(definition, named, cells) -> list:
    """Plain views emit keys and aggregates in select-item order."""
    out = list(named)
    for (pos, sql_type, values), name in zip(cells,
                                             definition.plain_names):
        out.append((name, ColumnData.from_values(sql_type, values)))
    return out


# ----------------------------------------------------------------------
# Selective re-derivation
# ----------------------------------------------------------------------
def derive_delta(definition: ViewDefinition, state: ViewState,
                 delta: DeltaInfo) -> Table:
    """Patch only changed rows of the previous result when no group
    was born or retracted; otherwise fall back to a full derive."""
    previous = state.result
    if previous is None or not delta.primary_stable():
        return derive(definition, state)
    if definition.kind == HORIZONTAL and not delta.fine_stable():
        return derive(definition, state)
    slots = delta.touched[0]
    state.rederived = 0
    if not slots:
        return previous
    rows = state.row_of_slot[slots]
    if definition.kind == VERTICAL:
        level = state.levels[0]
        state.sums = {idx: _patched(column, rows, ColumnData.from_values(
                          SQLType.REAL,
                          [level.values[idx][s] for s in slots]))
                      for idx, column in state.sums.items()}
        patches = _vertical_cells(definition, state, slots, rows,
                                    _widen(state, rows))
    else:
        patches = [(pos, rows, ColumnData.from_values(sql_type, values))
                   for pos, sql_type, values in
                   _cells(definition, state, slots)]
    columns = [(col_def.name, previous.column(col_def.name))
               for col_def in previous.schema.columns]
    patched = np.zeros(previous.n_rows, dtype=bool)
    for pos, at, small in patches:
        name, data = columns[pos]
        columns[pos] = (name, _patched(data, at, small))
        patched[at] = True
    table = Table.from_columns(definition.name, columns)
    state.result = table
    state.rederived = int(np.count_nonzero(patched))
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
# Vertical (Vpct) cells, in arrays over the cached row order
# ----------------------------------------------------------------------
def _cache_vertical(definition, state, order, key_columns) -> None:
    """Fine sums in row order and denominator groups, per Vpct term.

    Each term's totals group the result rows by its totals columns
    with the engine's grouping core; a term sourced through the fj
    lattice groups its source's denominator groups instead, which are
    in sorted-key order -- the fj table's row order."""
    level = state.levels[0]
    group_by = definition.group_by
    state.sums = {
        idx: ColumnData.from_values(
            SQLType.REAL, [level.values[idx][s] for s in order])
        for idx, plan in enumerate(definition.vplans) if plan.is_vpct}
    denominators: dict[int, Denominators] = {}
    key_sets: dict[int, list[ColumnData]] = {}
    for plan_idx, source_idx in definition.lattice:
        plan = definition.vplans[plan_idx]
        if source_idx is None:
            grouping = group_rows(
                [key_columns[group_by.index(c)] for c in plan.totals],
                len(order))
            rows = grouping.group_ids
        else:
            source = definition.vplans[source_idx]
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
    by denominators summed from the cached fine sums."""
    level = state.levels[0]
    n_keys = len(definition.group_by)
    sums = state.sums
    totals: dict[int, ColumnData] = {}
    for plan_idx, _ in definition.lattice:
        groups = state.denominators[plan_idx]
        addends = sums[plan_idx] if groups.source is None \
            else totals[groups.source]
        totals[plan_idx] = kernel_sum(
            addends.values, addends.nulls, SQLType.REAL,
            groups.addends, groups.n_groups)
    cells = []
    for idx, plan in enumerate(definition.vplans):
        if not plan.is_vpct:
            cells.append((n_keys + idx, rows, ColumnData.from_values(
                plan.out_type, [level.values[idx][s] for s in slots])))
            continue
        groups = state.denominators[idx].rows[widened]
        cells.append((n_keys + idx, widened, _divide(
            sums[idx].take(widened), totals[idx].take(groups))))
    return cells


def _patched(column: ColumnData, rows: np.ndarray,
             small: ColumnData) -> ColumnData:
    values = column.values.copy()
    nulls = column.nulls.copy()
    values[rows] = small.values
    nulls[rows] = small.nulls
    return ColumnData(small.sql_type, values, nulls)


def _divide(numerator: ColumnData, total: ColumnData) -> ColumnData:
    """The engine's three-way CASE division: NULL when the total is
    NULL or zero or the numerator is NULL, else numerator / total."""
    nulls = numerator.nulls | total.nulls | (total.values == 0)
    with np.errstate(divide="ignore", invalid="ignore",
                     over="ignore"):
        values = np.where(nulls, 0.0, numerator.values
                          / np.where(nulls, 1.0, total.values))
    return ColumnData(SQLType.REAL, values, nulls)


# ----------------------------------------------------------------------
# Cell computation for plain and horizontal views (full derive and
# patching)
# ----------------------------------------------------------------------
def _cells(definition, state, slots
           ) -> list[tuple[int, SQLType, list]]:
    """Non-key cell values for the given primary slots, as
    ``(result column position, type, values)`` triples."""
    if definition.kind == PLAIN:
        return _plain_cells(definition, state, slots)
    return _horizontal_cells(definition, state, slots)


def _plain_cells(definition, state, slots):
    level = state.levels[0]
    cells = []
    for pos, (kind, idx) in enumerate(definition.plain_items):
        if kind == "key":
            cells.append((pos, definition.key_types[idx],
                          [level.keys[s][idx] for s in slots]))
        else:
            cells.append((pos, level.measure_types[idx],
                          [level.values[idx][s] for s in slots]))
    return cells


def _discover_combos(definition, state) -> list[list[tuple]]:
    """Distinct BY-tuples among live fine slots, sorted -- the same
    combinations ``SELECT DISTINCT ... ORDER BY ...`` discovers over
    the WHERE-passing rows."""
    n_keys = len(definition.group_by)
    combos = []
    for level in state.levels[1:]:
        seen: dict[tuple, tuple] = {}
        for key, slot in level.slots.items():
            seen.setdefault(key[n_keys:], level.keys[slot][n_keys:])
        combos.append(sorted(seen.values(), key=sort_key))
    return combos


def _horizontal_cells(definition, state, slots):
    coarse = state.levels[0]
    n_keys = len(definition.group_by)
    combos = state.combos
    if combos is None:
        combos = _discover_combos(definition, state)
        state.combos = combos
    cells = []
    pos = n_keys
    for plan in definition.hplans:
        if plan.kind == model.VERTICAL:
            cells.append((pos, plan.out_type,
                          [coarse.values[plan.coarse_measure][s]
                           for s in slots]))
            pos += 1
            continue
        fine = state.levels[plan.level]
        fine_values = fine.values[plan.fine_measure]
        for combo in combos[plan.level - 1]:
            combo_key = normalize_key(combo)
            values: list[Any] = []
            for s in slots:
                slot = fine.slots.get(
                    normalize_key(coarse.keys[s]) + combo_key)
                if plan.kind == model.HPCT:
                    total = coarse.values[plan.coarse_measure][s]
                    if total is None or total == 0:
                        values.append(None)
                    elif slot is None:
                        values.append(0.0)
                    else:
                        numerator = fine_values[slot]
                        values.append(
                            None if numerator is None
                            else float(numerator) / float(total))
                else:
                    value = None if slot is None else fine_values[slot]
                    if value is None and plan.default is not None:
                        value = plan.default
                    values.append(value)
            cells.append((pos, plan.out_type, values))
            pos += 1
    return cells


def _cell_names(definition, state) -> list[str]:
    """Non-key output column names, in cell order.

    Horizontal names interleave plain-term names with per-combination
    names through one shared ``used`` set, exactly as the engine's
    direct strategy builds its FH column list."""
    if definition.kind == VERTICAL:
        return [plan.name for plan in definition.vplans]
    used = {c.lower() for c in definition.group_by}
    policy = NamingPolicy()
    names = []
    for plan in definition.hplans:
        term = definition.query.terms[plan.position]
        if plan.kind == model.VERTICAL:
            names.append(common.vertical_term_name(term, used))
            continue
        label = f"{term.label()}_" if definition.multiple else ""
        for combo in state.combos[plan.level - 1]:
            names.append(combo_column_name(
                term.by_columns, combo, policy,
                definition.max_name_length, used, prefix=label))
    return names


# ----------------------------------------------------------------------
# Query matching
# ----------------------------------------------------------------------
def match_view(catalog, select) -> Optional[object]:
    """The materialized view whose canonical definition text equals
    this SELECT's, if any (whole-statement structural rewrite)."""
    matviews = catalog.matviews()
    if not matviews:
        return None
    try:
        canonical = format_select(select)
    except TypeError:  # pragma: no cover - non-select statements
        return None
    for mv in matviews.values():
        if mv.definition.sql == canonical:
            return mv
    return None
