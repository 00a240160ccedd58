"""Delta maintenance of materialized-view state under DML.

The maintenance contract is *bitwise* equality with a from-scratch
recompute, which rules out classic +/- delta arithmetic for float
sums (addition is not associative).  Instead each DML adjusts group
membership incrementally and then **re-aggregates only the touched
groups** by gathering their member rows from the new base table in
original row order -- the same addend sequence the engine's kernels
(:func:`np.bincount` and friends) consume on a full scan -- so every
touched group's value is recomputed exactly, and every untouched
group's stored value is exactly what a full scan would produce.

Cost per statement: one O(changed rows) pass to re-key the changed
rows, one O(n) boolean gather to collect the touched groups' members,
kernel work proportional to the touched member count, and a
re-derive of the result (:func:`~repro.views.rewrite.derive_delta`)
whose Python work is per touched slot and whose O(groups) part -- a
Vpct view's denominators, the rows sharing one -- is numpy over the
row order the last full derive cached.  A write that births or
retracts a group pays a full derive instead: a sort of the live
groups and per-group Python.  A full refresh pays O(n) re-keying plus
kernels over every group.

Group lifecycle is count-based: membership counts track how many
WHERE-passing base rows each slot holds; a count reaching zero
retracts the slot (its key is removed from the index, the slot number
is never reused).  All of this happens on *clones* -- published
:class:`~repro.views.state.ViewState` objects are never mutated, so a
catalog savepoint rollback restores consistent (table, view) pairs.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.engine import faults
from repro.engine.aggregates import compute_aggregate, count_star
from repro.engine.expressions import Frame, evaluate, truth_mask
from repro.engine.groupby import first_positions, group_rows
from repro.sql import ast
from repro.views import rewrite
from repro.views.state import (DeltaInfo, GroupLevel, MaterializedView,
                               ViewDefinition, ViewState, normalize_key)

#: Deliberately mis-maintain state for harness self-tests (set via
#: ``fuzz --sweep views --inject-bug ...``; see :data:`VIEWS_BUGS`).
INJECT_BUG: Optional[str] = None

#: Bugs the views fuzz oracle must be able to see.
VIEWS_BUGS = ("views-skip-retraction", "views-stale-denominator")


# ----------------------------------------------------------------------
# Building and refreshing
# ----------------------------------------------------------------------
def build_state(definition: ViewDefinition, table,
                stats=None) -> ViewState:
    """Full build: every level keyed and aggregated from scratch."""
    levels = [GroupLevel(columns, measures)
              for columns, measures in definition.level_specs()]
    state = ViewState(levels)
    state.n_rows = table.n_rows
    positions = np.arange(table.n_rows, dtype=np.int64)
    for level in levels:
        _bootstrap_types(definition, level, table, stats)
        ids, touched, _ = _assign_ids(definition, level, table,
                                      positions, stats)
        level.group_ids = ids
        _recompute(definition, level, table, sorted(touched), stats)
    return state


def refresh(definition: ViewDefinition, table,
            stats=None) -> MaterializedView:
    """Full recompute against ``table`` (REFRESH / stale fallback)."""
    state = build_state(definition, table, stats)
    result = rewrite.derive(definition, state)
    return MaterializedView(definition, state, result, table.version)


def build_matview(catalog, name: str, select: ast.Select,
                  stats=None) -> MaterializedView:
    """Analyze + build + derive, for CREATE MATERIALIZED VIEW."""
    from repro.views.state import analyze_view

    definition = analyze_view(catalog, name, select)
    table = catalog.table(definition.base_table)
    return refresh(definition, table, stats)


def maintain(mv: MaterializedView, old_table, new_table, change,
             stats=None) -> tuple[MaterializedView, str]:
    """Bring ``mv`` up to date with one DML on its base table.

    ``change`` is ``("insert", old_row_count)``,
    ``("update", updated_row_mask)`` or ``("delete", keep_mask)``
    describing how ``new_table`` relates to ``old_table``.  Returns
    the replacement view and the maintenance mode (``"delta"`` when
    the view matched the pre-statement table version, ``"full"`` when
    it was stale and had to be rebuilt).
    """
    if mv.base_version != old_table.version:
        return refresh(mv.definition, new_table, stats), "full"
    state, delta = apply_dml(mv.definition, mv.state, new_table,
                             change, stats)
    result = rewrite.derive_delta(mv.definition, state, delta)
    return MaterializedView(mv.definition, state, result,
                            new_table.version), "delta"


# ----------------------------------------------------------------------
# The three DML delta paths
# ----------------------------------------------------------------------
def apply_dml(definition: ViewDefinition, state: ViewState, new_table,
              change, stats=None) -> tuple[ViewState, DeltaInfo]:
    """Apply one DML to a *clone* of ``state``; never mutates it."""
    kind, arg = change
    twin = state.clone()
    twin.n_rows = new_table.n_rows
    delta = DeltaInfo([], [], [])
    for level in twin.levels:
        if kind == "insert":
            touched, births, deaths = _level_insert(
                definition, level, new_table, arg, stats)
        elif kind == "update":
            touched, births, deaths = _level_update(
                definition, level, new_table, arg, stats)
        elif kind == "delete":
            touched, births, deaths = _level_delete(
                definition, level, new_table, arg, stats)
        else:  # pragma: no cover - caller bug
            raise ValueError(f"unknown DML kind {kind!r}")
        _recompute(definition, level, new_table, touched, stats)
        delta.touched.append(touched)
        delta.births.append(births)
        delta.deaths.append(deaths)
    return twin, delta


def _level_insert(definition, level, new_table, old_rows, stats
                  ) -> tuple[list[int], bool, bool]:
    positions = np.arange(old_rows, new_table.n_rows, dtype=np.int64)
    ids, touched, births = _assign_ids(definition, level, new_table,
                                       positions, stats)
    level.group_ids = np.concatenate([level.group_ids, ids])
    return sorted(touched), births, False


def _level_update(definition, level, new_table, updated_mask, stats
                  ) -> tuple[list[int], bool, bool]:
    positions = np.flatnonzero(np.asarray(updated_mask, dtype=bool))
    old_at = level.group_ids[positions]
    new_at, touched, births = _assign_ids(definition, level, new_table,
                                          positions, stats)
    deaths = _drop_members(level, old_at)
    group_ids = level.group_ids.copy()
    group_ids[positions] = new_at
    level.group_ids = group_ids
    for slot in old_at[old_at >= 0]:
        touched.add(int(slot))
    live = set(level.slots.values())
    return sorted(touched & live), births, deaths


def _level_delete(definition, level, new_table, keep_mask, stats
                  ) -> tuple[list[int], bool, bool]:
    keep = np.asarray(keep_mask, dtype=bool)
    removed = level.group_ids[~keep]
    deaths = _drop_members(level, removed)
    level.group_ids = level.group_ids[keep]
    touched = {int(s) for s in removed[removed >= 0]}
    live = set(level.slots.values())
    return sorted(touched & live), False, deaths


def _drop_members(level: GroupLevel, ids: np.ndarray) -> bool:
    """Decrement membership; retract slots that reach zero."""
    ids = ids[ids >= 0]
    if not len(ids):
        return False
    drops = np.bincount(ids, minlength=level.n_slots)
    deaths = False
    for slot in np.flatnonzero(drops):
        slot = int(slot)
        level.counts[slot] -= int(drops[slot])
        if level.counts[slot] == 0:
            if INJECT_BUG == "views-skip-retraction":
                continue
            key = normalize_key(level.keys[slot])
            if level.slots.get(key) == slot:
                del level.slots[key]
                deaths = True
    return deaths


# ----------------------------------------------------------------------
# Keying and touched-group re-aggregation
# ----------------------------------------------------------------------
def _frame_over(definition, table, positions, stats):
    sub = table.take(positions)
    frame = Frame(sub.n_rows)
    frame.add_table(definition.binding, sub)
    return sub, frame


def _where_mask(definition, frame, n: int, stats) -> np.ndarray:
    if definition.where is None:
        return np.ones(n, dtype=bool)
    return truth_mask(definition.where, frame, stats)


def _assign_ids(definition, level: GroupLevel, table,
                positions: np.ndarray, stats
                ) -> tuple[np.ndarray, set[int], bool]:
    """Slot ids for the rows at ``positions`` of ``table``.

    Rows failing the WHERE clause get ``-1``; new keys are appended as
    fresh slots.  Membership counts are incremented here (callers that
    replace old memberships decrement separately, after assignment, so
    an unchanged group never transits through zero)."""
    sub, frame = _frame_over(definition, table, positions, stats)
    n = sub.n_rows
    passing = np.flatnonzero(_where_mask(definition, frame, n, stats))
    ids = np.full(n, -1, dtype=np.int64)
    touched: set[int] = set()
    births = False
    if not len(passing):
        return ids, touched, births
    # Group the passing rows with the engine's own grouping core, then
    # probe the slot index once per *distinct key*, in first-appearance
    # order -- the slot numbering a row-at-a-time walk would produce.
    key_cols = [evaluate(ast.ColumnRef(name=c), frame, stats)
                .take(passing) for c in level.columns]
    grouping = group_rows(key_cols, len(passing))
    firsts = first_positions(grouping.group_ids, grouping.n_groups)
    members = np.bincount(grouping.group_ids,
                          minlength=grouping.n_groups)
    slot_of = np.empty(grouping.n_groups, dtype=np.int64)
    representatives = [col.take(firsts).to_pylist() for col in key_cols]
    for group in np.argsort(firsts, kind="stable").tolist():
        raw = tuple(values[group] for values in representatives)
        key = normalize_key(raw)
        slot = level.slots.get(key)
        if slot is None:
            slot = level.n_slots
            level.slots[key] = slot
            level.keys.append(raw)
            level.counts.append(0)
            for values in level.values:
                values.append(None)
            births = True
        level.counts[slot] += int(members[group])
        slot_of[group] = slot
        touched.add(slot)
    ids[passing] = slot_of[grouping.group_ids]
    return ids, touched, births


def _recompute(definition, level: GroupLevel, table,
               touched: list[int], stats) -> None:
    """Re-aggregate the touched slots from their member rows.

    The gather preserves base-table row order, so each group's addends
    hit the kernels in exactly the sequence a full scan would feed
    them -- the bit-identity argument for float sums."""
    if not touched:
        return
    from repro.engine.executor import _concrete

    ids = level.group_ids
    flag = np.zeros(level.n_slots, dtype=bool)
    flag[touched] = True
    valid = ids >= 0
    member = valid & flag[np.where(valid, ids, 0)]
    positions = np.flatnonzero(member)
    remap = np.full(level.n_slots, -1, dtype=np.int64)
    remap[touched] = np.arange(len(touched), dtype=np.int64)
    local = remap[ids[positions]]
    sub, frame = _frame_over(definition, table, positions, stats)
    for m, spec in enumerate(level.measures):
        faults.cross("view-maintenance")
        if spec.argument is None:
            col = count_star(local, len(touched))
        else:
            arg = _concrete(evaluate(spec.argument, frame, stats))
            col = compute_aggregate(spec.func, arg, spec.distinct,
                                    local, len(touched))
        for j, slot in enumerate(touched):
            level.values[m][slot] = col[j]


def _bootstrap_types(definition, level: GroupLevel, table,
                     stats) -> None:
    """Pin each measure's result type via a zero-row kernel run, so
    derives of views with no (remaining) groups still carry the exact
    column types a recompute would produce."""
    from repro.engine.executor import _concrete

    empty = np.empty(0, dtype=np.int64)
    _, frame = _frame_over(definition, table, empty, stats)
    for m, spec in enumerate(level.measures):
        if spec.argument is None:
            col = count_star(empty, 0)
        else:
            arg = _concrete(evaluate(spec.argument, frame, stats))
            col = compute_aggregate(spec.func, arg, spec.distinct,
                                    empty, 0)
        level.measure_types[m] = col.sql_type
