"""Delta maintenance of materialized-view state under DML.

The maintenance contract is *bitwise* equality with a from-scratch
recompute, which rules out classic +/- delta arithmetic for float
sums (addition is not associative).  Instead each DML adjusts group
membership incrementally and then **re-aggregates only the touched
groups** by gathering their member rows from the new base table in
original row order -- the same addend sequence the engine's kernels
(:func:`np.bincount` and friends) consume on a full scan -- so every
touched group's value is recomputed exactly and scattered into the
level's measure columns, and every untouched group's stored value is
exactly what a full scan would produce.

Every write is one rule: rows *leave* their slot and rows *join* one
(:func:`_moves`); a build inserts every row into empty levels.  As a
touched group is re-aggregated from its member rows, an INSERT and a
DELETE are one problem even for ``min`` and ``max``.

Keying is one :func:`~repro.engine.groupby.group_rows` per level per
statement, over the live slots' keys followed by the joined rows'
keys: a joined row joins the live slot whose key it shares, and keys
no live slot holds become new slots in first-appearance order.

Cost per statement: that O(groups + changed rows) probe, one O(n)
boolean gather to collect the touched groups' members, kernel work
proportional to the touched member count, and a re-derive of the
result (:func:`~repro.views.rewrite.derive_delta`) in numpy over the
row order the last full derive cached.  A write that births or
retracts a group pays a full derive instead: O(groups) numpy.  A full
refresh pays O(n) re-keying plus kernels over every group.

Group lifecycle is count-based: membership counts track how many
WHERE-passing base rows each slot holds; a count reaching zero
retracts the slot (it no longer matches keys, and its number is never
reused).  All of this happens on *clones* -- published
:class:`~repro.views.state.ViewState` objects are never mutated, so a
catalog savepoint rollback restores consistent (table, view) pairs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine import faults
from repro.engine.aggregates import compute_aggregate, count_star
from repro.engine.column import ColumnData
from repro.engine.expressions import Frame, evaluate, truth_mask
from repro.engine.groupby import first_positions, group_rows
from repro.sql import ast
from repro.views import rewrite
from repro.views.state import (DeltaInfo, GroupLevel, MaterializedView,
                               ViewDefinition, ViewState, patched)

#: Deliberately mis-maintain state for harness self-tests (set via
#: ``fuzz --sweep views --inject-bug ...``; see :data:`VIEWS_BUGS`).
INJECT_BUG: Optional[str] = None

#: Bugs the views fuzz oracle must be able to see.
VIEWS_BUGS = ("views-skip-retraction", "views-stale-denominator")


# ----------------------------------------------------------------------
# Building and refreshing
# ----------------------------------------------------------------------
def _empty_state(definition: ViewDefinition, table, stats) -> ViewState:
    """Every level with no slot and no row."""
    # Zero-row evaluations type the empty key and measure columns, so
    # a view with no (remaining) groups still derives the exact column
    # types a recompute would produce.
    none = np.empty(0, dtype=np.int64)
    _, frame = _frame_over(definition, table, none, stats)
    return ViewState([GroupLevel(
                          columns, measures,
                          [evaluate(ast.ColumnRef(name=c), frame, stats)
                           for c in columns],
                          [_aggregate(spec, frame, none, 0, stats)
                           for spec in measures])
                      for columns, measures in definition.level_specs()])


def refresh(definition: ViewDefinition, table,
            stats=None) -> MaterializedView:
    """Full recompute against ``table`` (REFRESH / stale fallback): the
    write rule inserting every row into empty levels."""
    state, _ = apply_dml(definition, _empty_state(definition, table, stats),
                         table, ("insert", 0), stats)
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
# The write rule
# ----------------------------------------------------------------------
def _moves(change, n_rows: int):
    """``(gone, keep, joined)``: the old positions of the rows leaving
    their slot, the kept old rows, the new positions of the rows joining
    one.  An INSERT joins the appended rows, a DELETE's deleted rows
    leave, an UPDATE's updated rows leave and join again."""
    kind, arg = change
    none = np.empty(0, dtype=np.int64)
    if kind == "insert":
        return none, slice(None), np.arange(arg, n_rows, dtype=np.int64)
    if kind == "update":
        moved = np.flatnonzero(np.asarray(arg, dtype=bool))
        return moved, slice(None), moved
    if kind == "delete":
        keep = np.asarray(arg, dtype=bool)
        return np.flatnonzero(~keep), keep, none
    raise ValueError(f"unknown DML kind {kind!r}")  # pragma: no cover


def apply_dml(definition: ViewDefinition, state: ViewState, new_table,
              change, stats=None) -> tuple[ViewState, DeltaInfo]:
    """Apply one write to a *clone* of ``state``; never mutates it."""
    moves = _moves(change, new_table.n_rows)
    twin = state.clone()
    written = [_write(definition, level, new_table, *moves, stats)
               for level in twin.levels]
    return twin, DeltaInfo(written[0][0],
                           all(stable for _, stable in written))


def _write(definition, level: GroupLevel, table, gone, keep, joined,
           stats) -> tuple[np.ndarray, bool]:
    """Key the joined rows, then drop the leaving rows' memberships (so
    a group that keeps a member never passes through zero), and
    re-aggregate the touched live slots.  Returns them (ascending) and
    whether no group was born or retracted."""
    left = level.group_ids[gone]
    left = left[left >= 0]
    kept = level.group_ids[keep]
    group_ids = np.concatenate(
        [kept, np.full(table.n_rows - len(kept), -1, dtype=np.int64)])
    ids, touched, births = _assign_ids(definition, level, table, joined,
                                       stats)
    group_ids[joined] = ids
    level.group_ids = group_ids
    deaths = False
    if len(left):  # a slot whose count reaches zero is retracted
        counts = level.counts - np.bincount(left, minlength=level.n_slots)
        if INJECT_BUG == "views-skip-retraction":
            counts = np.maximum(counts, 1)
        deaths = bool(((level.counts > 0) & (counts == 0)).any())
        level.counts = counts
        touched = np.union1d(touched, left)
    touched = touched[level.counts[touched] > 0]
    _recompute(definition, level, table, touched, stats)
    return touched, not (births or deaths)


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
                ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Slot ids for the rows at ``positions`` of ``table``, the slots
    they touch (ascending) and whether any was born.

    Rows failing the WHERE clause get ``-1``.  One grouping of the
    live slots' keys followed by the passing rows' keys matches each
    row to the live slot holding its key; the keys no live slot holds
    become new slots in first-appearance order -- the numbering a
    row-at-a-time walk would produce.  Membership counts are
    incremented here (callers that replace old memberships decrement
    separately, after assignment, so an unchanged group never transits
    through zero)."""
    sub, frame = _frame_over(definition, table, positions, stats)
    n = sub.n_rows
    passing = np.flatnonzero(_where_mask(definition, frame, n, stats))
    ids = np.full(n, -1, dtype=np.int64)
    if not len(passing):
        return ids, np.empty(0, dtype=np.int64), False
    batch = [evaluate(ast.ColumnRef(name=c), frame, stats)
             .take(passing) for c in level.columns]
    live = level.live()
    grouping = group_rows(
        [ColumnData.concat([key.take(live), column])
         for key, column in zip(level.keys, batch)],
        len(live) + len(passing))
    slot_of = np.full(grouping.n_groups, -1, dtype=np.int64)
    slot_of[grouping.group_ids[:len(live)]] = live
    rows = grouping.group_ids[len(live):]
    new = np.flatnonzero(slot_of < 0)
    if len(new):
        firsts = first_positions(rows, grouping.n_groups)[new]
        born = np.argsort(firsts)
        slot_of[new[born]] = level.grow(
            [column.take(firsts[born]) for column in batch])
    ids[passing] = slot_of[rows]
    level.counts = level.counts + np.bincount(
        ids[passing], minlength=level.n_slots)
    return ids, np.unique(slot_of[rows]), bool(len(new))


def _aggregate(spec, frame, group_ids, n_groups, stats) -> ColumnData:
    from repro.engine.executor import _concrete

    if spec.argument is None:
        return count_star(group_ids, n_groups)
    arg = _concrete(evaluate(spec.argument, frame, stats))
    return compute_aggregate(spec.func, arg, spec.distinct, group_ids,
                             n_groups)


def _recompute(definition, level: GroupLevel, table,
               touched: np.ndarray, stats) -> None:
    """Re-aggregate the touched slots from their member rows.

    The gather preserves base-table row order, so each group's addends
    hit the kernels in exactly the sequence a full scan would feed
    them -- the bit-identity argument for float sums."""
    if not len(touched):
        return
    ids = level.group_ids
    flag = np.zeros(level.n_slots, dtype=bool)
    flag[touched] = True
    valid = ids >= 0
    member = valid & flag[np.where(valid, ids, 0)]
    positions = np.flatnonzero(member)
    remap = np.full(level.n_slots, -1, dtype=np.int64)
    remap[touched] = np.arange(len(touched), dtype=np.int64)
    local = remap[ids[positions]]
    _, frame = _frame_over(definition, table, positions, stats)
    for m, spec in enumerate(level.measures):
        faults.cross("view-maintenance")
        level.values[m] = patched(
            level.values[m], touched,
            _aggregate(spec, frame, local, len(touched), stats))
