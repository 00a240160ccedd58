"""The view derive against its per-slot reference.

``rewrite`` derives every view in arrays: the row order is the engine's
grouping of the live keys; Vpct denominators come from that grouping
plus ``kernel_sum``, patched rows are widened with one ``np.isin`` per
Vpct term and percentages are divided under NULL/zero masks; plain
items are takes; Hpct/Hagg cells are scattered into a combinations x
rows block.  The per-slot code it replaced -- a Python sort of the key
tuples, dict-accumulated totals, a rescan of every slot for rows
sharing a denominator, a dict probe per (row, combination) cell,
values coerced one by one -- is kept here as the reference.  Over
adversarial keys and values and a DML script (with and without births
and deaths) both must publish *exactly* the same result table: column
names and types, values (bit patterns, fillers under NULL included),
NULL masks and row order.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np
import pytest

from repro.api.database import Database
from repro.core import model
from repro.core.naming import NamingPolicy, combo_column_name
from repro.engine.column import ColumnData
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.views import maintenance, rewrite
from repro.views.state import HORIZONTAL, PLAIN, VERTICAL


# ----------------------------------------------------------------------
# The per-slot model: normalized key tuples and their sort order
# ----------------------------------------------------------------------
class _NanKey:
    """Dictionary-stable stand-in for NaN key components."""

    __slots__ = ()


NAN_KEY = _NanKey()


def normalize_key(values: tuple) -> tuple:
    return tuple(NAN_KEY if isinstance(v, float) and v != v else v
                 for v in values)


def sort_key(values: tuple) -> tuple:
    """NULL first, NaN last: the engine's encoded order."""
    return tuple((0, 0) if v is None
                 else (2, 0) if v is NAN_KEY or v != v
                 else (1, v) for v in values)


def _key(level, slot: int) -> tuple:
    return tuple(key[slot] for key in level.keys)


def _slots(level) -> dict[tuple, int]:
    """Normalized key -> live slot, in slot order."""
    return {normalize_key(_key(level, s)): int(s) for s in level.live()}


def ordered_slots(level) -> list[int]:
    """Live slots in the engine's result-row order."""
    return sorted(_slots(level).values(),
                  key=lambda s: sort_key(_key(level, s)))


# ----------------------------------------------------------------------
# The per-slot reference derive
# ----------------------------------------------------------------------
def _derive_reference(definition, state):
    level = state.levels[0]
    order = ordered_slots(level)
    named = []
    if definition.kind != PLAIN:
        named = [(column, ColumnData.from_values(
                     definition.key_types[i],
                     [_key(level, s)[i] for s in order]))
                 for i, column in enumerate(definition.group_by)]
    if definition.kind == HORIZONTAL:
        state.combos = _discover_combos(definition, state)
        names = _horizontal_names(definition, state.combos)
    else:
        names = definition.plain_names if definition.kind == PLAIN \
            else [t.name for t in definition.layout.terms]
    for (_, sql_type, values), name in zip(
            _cells(definition, state, order), names):
        named.append((name, ColumnData.from_values(sql_type, values)))
    table = Table.from_columns(definition.name, named)
    state.result = table
    state.row_of_slot = {slot: row for row, slot in enumerate(order)}
    return table


def _derive_delta_reference(definition, state, delta):
    previous = state.result
    if previous is None or not isinstance(state.row_of_slot, dict) \
            or not delta.stable:
        return _derive_reference(definition, state)
    if definition.kind == VERTICAL:
        slots = _patch_slots(definition, state, delta)
    else:
        slots = [int(s) for s in delta.touched]
    if not slots:
        return previous
    rows = np.array([state.row_of_slot[s] for s in slots],
                    dtype=np.int64)
    patched = {pos: (sql_type, values)
               for pos, sql_type, values in
               _cells(definition, state, slots)}
    named = []
    for pos, col_def in enumerate(previous.schema.columns):
        data = previous.column(col_def.name)
        if pos in patched:
            sql_type, values = patched[pos]
            small = ColumnData.from_values(sql_type, values)
            merged = data.values.copy()
            nulls = data.nulls.copy()
            merged[rows] = small.values
            nulls[rows] = small.nulls
            data = ColumnData(sql_type, merged, nulls)
        named.append((col_def.name, data))
    table = Table.from_columns(definition.name, named)
    state.result = table
    return table


def _cells(definition, state, slots) -> list[tuple[int, SQLType, list]]:
    """Non-key cell values for the given primary slots, as
    ``(result column position, type, values)`` triples."""
    if definition.kind == PLAIN:
        return _plain_cells(definition, state, slots)
    if definition.kind == VERTICAL:
        return _vertical_cells(definition, state, slots)
    return _horizontal_cells(definition, state, slots)


# ----------------------------------------------------------------------
# Plain cells
# ----------------------------------------------------------------------
def _plain_cells(definition, state, slots):
    level = state.levels[0]
    cells = []
    for pos, (kind, idx) in enumerate(definition.plain_items):
        if kind == "key":
            cells.append((pos, definition.key_types[idx],
                          [_key(level, s)[idx] for s in slots]))
        else:
            cells.append((pos, level.values[idx].sql_type,
                          [level.values[idx][s] for s in slots]))
    return cells


# ----------------------------------------------------------------------
# Vertical (Vpct) cells
# ----------------------------------------------------------------------
def _patch_slots(definition, state, delta) -> list[int]:
    touched = {int(s) for s in delta.touched}
    level = state.levels[0]
    group_by = definition.group_by
    for plan in definition.layout.terms:
        if plan.kind != model.VPCT:
            continue
        pos = [group_by.index(c) for c in plan.totals]
        changed = {normalize_key(tuple(_key(level, s)[p] for p in pos))
                   for s in touched}
        for slot in _slots(level).values():
            if normalize_key(tuple(_key(level, slot)[p]
                                   for p in pos)) in changed:
                touched.add(slot)
    return sorted(touched)


def _vertical_cells(definition, state, slots):
    level = state.levels[0]
    group_by = definition.group_by
    totals = _vertical_totals(definition, state)
    cells = []
    for idx, plan in enumerate(definition.layout.terms):
        pos = len(group_by) + idx
        if plan.kind != model.VPCT:
            cells.append((pos, plan.sql_type,
                          [level.values[idx][s] for s in slots]))
            continue
        projection = [group_by.index(c) for c in plan.totals]
        total_map = totals[idx]
        values: list[Any] = []
        for s in slots:
            raw = _key(level, s)
            total = total_map[normalize_key(
                tuple(raw[p] for p in projection))]
            numerator = level.values[idx][s]
            if total is None or total == 0 or numerator is None:
                values.append(None)
            else:
                values.append(float(numerator) / total)
        cells.append((pos, SQLType.REAL, values))
    return cells


def _vertical_totals(definition, state) -> dict[int, dict]:
    level = state.levels[0]
    group_by = definition.group_by
    order = ordered_slots(level)
    entries_by_plan: dict[int, dict] = {}
    for plan_idx, source_idx in definition.layout.lattice:
        plan = definition.layout.terms[plan_idx]
        entries: dict[tuple, list] = {}
        if source_idx is None:
            projection = [group_by.index(c) for c in plan.totals]
            for s in order:
                raw = tuple(_key(level, s)[p] for p in projection)
                value = level.values[plan_idx][s]
                _accumulate(entries, raw,
                            None if value is None else float(value))
        else:
            source = definition.layout.terms[source_idx]
            projection = [source.totals.index(c) for c in plan.totals]
            source_entries = sorted(
                entries_by_plan[source_idx].values(),
                key=lambda entry: sort_key(entry[0]))
            for raw_source, value in source_entries:
                raw = tuple(raw_source[p] for p in projection)
                _accumulate(entries, raw, value)
        entries_by_plan[plan_idx] = entries
    return {plan_idx: {key: entry[1] for key, entry in entries.items()}
            for plan_idx, entries in entries_by_plan.items()}


def _accumulate(entries: dict, raw: tuple,
                value: Optional[float]) -> None:
    key = normalize_key(raw)
    current = entries.get(key)
    if current is None:
        entries[key] = [raw, value]
    elif value is not None:
        current[1] = value if current[1] is None else current[1] + value


# ----------------------------------------------------------------------
# Horizontal (Hpct/Hagg) cells
# ----------------------------------------------------------------------
def _discover_combos(definition, state) -> list[list[tuple]]:
    """Distinct BY-tuples among live fine slots, sorted -- the same
    combinations ``SELECT DISTINCT ... ORDER BY ...`` discovers over
    the WHERE-passing rows."""
    n_keys = len(definition.group_by)
    combos = []
    for level in state.levels[1:]:
        seen: dict[tuple, tuple] = {}
        for key, slot in _slots(level).items():
            seen.setdefault(key[n_keys:], _key(level, slot)[n_keys:])
        combos.append(sorted(seen.values(), key=sort_key))
    return combos


def _horizontal_cells(definition, state, slots):
    coarse = state.levels[0]
    n_keys = len(definition.group_by)
    cells = []
    pos = n_keys
    for t, plan in zip(definition.layout.terms, definition.hplans):
        coarse_values = None if plan.coarse_measure is None \
            else coarse.values[plan.coarse_measure]
        if t.kind == model.VERTICAL:
            cells.append((pos, t.sql_type,
                          [coarse_values[s] for s in slots]))
            pos += 1
            continue
        fine = state.levels[plan.level]
        fine_slots = _slots(fine)
        fine_values = fine.values[plan.fine_measure]
        for combo in state.combos[plan.level - 1]:
            combo_key = normalize_key(combo)
            values: list[Any] = []
            for s in slots:
                slot = fine_slots.get(
                    normalize_key(_key(coarse, s)) + combo_key)
                if t.kind == model.HPCT:
                    total = coarse_values[s]
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
                    if value is None and t.term.default is not None:
                        value = t.term.default
                    values.append(value)
            cells.append((pos, t.sql_type, values))
            pos += 1
    return cells


def _horizontal_names(definition, combos) -> list[str]:
    used = {c.lower() for c in definition.group_by}
    policy = NamingPolicy()
    names = []
    for t, plan in zip(definition.layout.terms, definition.hplans):
        if t.kind == model.VERTICAL:
            names.append(_unique(t.stem, used))
            continue
        for combo in combos[plan.level - 1]:
            names.append(combo_column_name(
                t.term.by_columns, combo, policy,
                definition.layout.max_name_length, used,
                prefix=t.prefix))
    return names


def _unique(stem: str, used: set[str]) -> str:
    name, i = stem, 2
    while name.lower() in used:
        name, i = f"{stem}_{i}", i + 1
    used.add(name.lower())
    return name


# ----------------------------------------------------------------------
# Data, views and DML
# ----------------------------------------------------------------------
COLUMNS = [("k", "real"), ("s", "varchar"), ("d", "int"), ("a", "real")]
NAN = float("nan")
ROWS = [
    (2.0, "b", 1, 1.0), (0.0, "a", 1, 2.0), (-0.0, "a", 2, 3.0),
    (None, "a", 1, 4.0), (2.0, None, 2, 5.0), (None, None, None, 6.0),
    (2.0, "b", 1, 7.0), (1.5, "it's", 2, -8.0), (None, "a", 2, 9.0),
    (7.0, "gone", 1, 0.0),
    # k = 3: the denominator sums to zero; k = 4: it is all NULL.
    (3.0, "z", 1, 2.0), (3.0, "y", 2, -2.0),
    (4.0, "x", 1, None), (4.0, "w", 2, None),
    # -0.0 numerators, and NaN keys and values.
    (5.0, "n", 1, -0.0), (5.0, "m", 1, 1.5),
    (NAN, "a", 1, 1.0), (NAN, "a", 2, 2.0), (6.0, "q", 1, NAN),
    # Sums whose value depends on the addend order.
    (8.0, "p", 1, 0.1), (8.0, "p", 2, 0.2), (8.0, "r", 1, 0.3),
    (8.0, "r", 2, 1e16), (8.0, "t", 1, -1e16), (8.0, "t", 2, 0.7),
]
VIEWS = [
    "SELECT k, s, Vpct(a BY s) FROM f GROUP BY k, s",
    # The coarse (k) totals source the finer (k, d) ones.
    "SELECT k, s, d, Vpct(a BY s), Vpct(a BY s, d) FROM f "
    "GROUP BY k, s, d",
    # A three-term chain: (k, s) -> (k) -> the grand total.
    "SELECT k, s, d, Vpct(a BY d), Vpct(a BY s, d), Vpct(a BY k, s, d) "
    "FROM f GROUP BY k, s, d",
    # No BY: one grand total; plain terms beside it; a WHERE.
    "SELECT s, Vpct(a), sum(a), count(*) FROM f WHERE d <> 2 "
    "GROUP BY s",
    "SELECT k, d, Vpct(a BY d), min(d) FROM f WHERE a IS NOT NULL "
    "GROUP BY k, d",
    # Plain group-by: a key between the aggregates.
    "SELECT count(DISTINCT d), k, min(s), stdev(a), count(*) FROM f "
    "GROUP BY k",
    # Hpct beside plain terms.
    "SELECT k, sum(a), Hpct(a BY d), count(*) FROM f GROUP BY k",
    # Hagg with a DEFAULT, and without one over a VARCHAR.
    "SELECT k, sum(a BY d DEFAULT 0), max(s BY d) FROM f "
    "WHERE s IS NOT NULL GROUP BY k",
    # Two BY sets.
    "SELECT d, Hpct(a BY s), count(a BY k DEFAULT -1) FROM f "
    "GROUP BY d",
]
#: Measure drift only: no group is born or retracted.
STABLE = [
    "UPDATE f SET a = a + 1 WHERE s = 'b'",
    "UPDATE f SET a = -0.0 WHERE k = 2.0",
    "UPDATE f SET a = NULL WHERE s = 'a'",
    "INSERT INTO f VALUES (2.0, 'b', 1, 3.0)",
    "DELETE FROM f WHERE a = 3.0",
    "UPDATE f SET a = 0.0 WHERE k = 3.0",
    "UPDATE f SET a = 2.5 WHERE k = 4.0 AND d = 1",
]
#: Births, deaths and migrations.
CHURN = [
    "INSERT INTO f VALUES (9.0, 'new', 3, 1.0), (NULL, 'a', 1, -1.0)",
    "UPDATE f SET k = 0.0 WHERE s = 'b'",
    "DELETE FROM f WHERE s = 'gone'",
    "UPDATE f SET d = 2 WHERE k = 5.0",
    "DELETE FROM f WHERE k = 9.0",
    "INSERT INTO f VALUES (7.0, 'gone', 1, 3.0)",
    "UPDATE f SET a = a * 2",
    # A NULL key born from arithmetic keeps a non-zero filler in the
    # base table; the view's key column must not.
    "DELETE FROM f WHERE k IS NULL",
    "UPDATE f SET k = a * 0 + k WHERE a IS NULL",
]


def _database() -> Database:
    db = Database()
    db.load_table("f", COLUMNS, ROWS)
    return db


def _snapshot(table) -> list:
    out = []  # names included: Hpct/Hagg columns are named by values
    for col_def in table.schema.columns:
        data = table.column(col_def.name)
        values = data.values.tobytes() if data.values.dtype != object \
            else repr(data.values.tolist())
        out.append((col_def.name, data.sql_type, values,
                    data.nulls.tobytes()))
    return out


def _run(monkeypatch, view: str, script: list[str],
         reference: bool) -> list:
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(rewrite, "derive", _derive_reference)
            patch.setattr(rewrite, "derive_delta",
                          _derive_delta_reference)
        db = _database()
        db.execute(f"CREATE MATERIALIZED VIEW v AS {view}")
        snapshots = [_snapshot(db.catalog.matview("v").result)]
        for statement in script:
            db.execute(statement)
            mv = db.catalog.matview("v")
            assert mv.fresh(db.catalog.table("f"))
            snapshots.append(_snapshot(mv.result))
        return snapshots


@pytest.mark.parametrize("script", [STABLE, CHURN, STABLE + CHURN],
                         ids=["stable", "churn", "both"])
@pytest.mark.parametrize("view", VIEWS)
def test_array_derive_equals_the_per_slot_reference(monkeypatch, view,
                                                     script):
    assert _run(monkeypatch, view, script, reference=False) \
        == _run(monkeypatch, view, script, reference=True)


def test_the_views_cover_the_lattice_and_the_grand_total():
    db = _database()
    for i, view in enumerate(VIEWS):
        db.execute(f"CREATE MATERIALIZED VIEW v{i} AS {view}")
    definitions = [db.catalog.matview(f"v{i}").definition
                   for i in range(len(VIEWS))]
    assert [source for _, source in definitions[1].layout.lattice] \
        == [None, 0]
    assert [source for _, source in definitions[2].layout.lattice] \
        == [None, 0, 1]
    assert definitions[3].layout.terms[0].totals == ()


def test_stable_writes_patch_rows_without_a_full_derive(monkeypatch):
    db = _database()
    db.execute(f"CREATE MATERIALIZED VIEW v AS {VIEWS[0]}")
    monkeypatch.setattr(rewrite, "derive", _refuse)
    for statement in STABLE:
        db.execute(statement)
    assert maintenance.INJECT_BUG is None


def _refuse(*args, **kwargs):
    raise AssertionError("a write that births or retracts no group "
                         "derived the whole view")
