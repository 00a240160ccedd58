"""The Vpct view derive against its per-slot reference.

``rewrite`` derives a vertical view in arrays over a cached row order:
denominators come from the engine's grouping core plus ``kernel_sum``,
patched rows are widened with one ``np.isin`` per Vpct term, and the
percentages are divided under NULL/zero masks.  The per-slot code it
replaced -- dict-accumulated totals, a rescan of every slot for rows
sharing a denominator, values coerced one by one -- is kept here as
the reference.  Over adversarial keys and values and a DML script
(with and without births and deaths) both must publish *exactly* the
same result table: column types, values (bit patterns, fillers under
NULL included), NULL masks and row order.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np
import pytest

from repro.api.database import Database
from repro.engine.column import ColumnData
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.views import maintenance, rewrite
from repro.views.state import VERTICAL, normalize_key, sort_key


# ----------------------------------------------------------------------
# The per-slot reference (vertical views only)
# ----------------------------------------------------------------------
def _derive_reference(definition, state):
    assert definition.kind == VERTICAL
    level = state.levels[0]
    order = level.ordered_slots()
    named = [(column, ColumnData.from_values(
                 definition.key_types[i],
                 [level.keys[s][i] for s in order]))
             for i, column in enumerate(definition.group_by)]
    for (_, sql_type, values), plan in zip(
            _vertical_cells(definition, state, order),
            definition.vplans):
        named.append((plan.name, ColumnData.from_values(sql_type,
                                                        values)))
    table = Table.from_columns(definition.name, named)
    state.result = table
    state.row_of_slot = {slot: row for row, slot in enumerate(order)}
    return table


def _derive_delta_reference(definition, state, delta):
    previous = state.result
    if previous is None or not isinstance(state.row_of_slot, dict) \
            or not delta.primary_stable():
        return _derive_reference(definition, state)
    slots = _patch_slots(definition, state, delta)
    if not slots:
        return previous
    rows = np.array([state.row_of_slot[s] for s in slots],
                    dtype=np.int64)
    patched = {pos: (sql_type, values)
               for pos, sql_type, values in
               _vertical_cells(definition, state, slots)}
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


def _patch_slots(definition, state, delta) -> list[int]:
    touched = set(delta.touched[0])
    level = state.levels[0]
    group_by = definition.group_by
    for plan in definition.vplans:
        if not plan.is_vpct:
            continue
        pos = [group_by.index(c) for c in plan.totals]
        changed = {normalize_key(tuple(level.keys[s][p] for p in pos))
                   for s in touched}
        for slot in level.slots.values():
            if normalize_key(tuple(level.keys[slot][p]
                                   for p in pos)) in changed:
                touched.add(slot)
    return sorted(touched)


def _vertical_cells(definition, state, slots):
    level = state.levels[0]
    group_by = definition.group_by
    totals = _vertical_totals(definition, state)
    cells = []
    for idx, plan in enumerate(definition.vplans):
        pos = len(group_by) + idx
        if not plan.is_vpct:
            cells.append((pos, plan.out_type,
                          [level.values[idx][s] for s in slots]))
            continue
        projection = [group_by.index(c) for c in plan.totals]
        total_map = totals[idx]
        values: list[Any] = []
        for s in slots:
            raw = level.keys[s]
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
    order = level.ordered_slots()
    entries_by_plan: dict[int, dict] = {}
    for plan_idx, source_idx in definition.lattice:
        plan = definition.vplans[plan_idx]
        entries: dict[tuple, list] = {}
        if source_idx is None:
            projection = [group_by.index(c) for c in plan.totals]
            for s in order:
                raw = tuple(level.keys[s][p] for p in projection)
                value = level.values[plan_idx][s]
                _accumulate(entries, raw,
                            None if value is None else float(value))
        else:
            source = definition.vplans[source_idx]
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
]


def _database() -> Database:
    db = Database()
    db.load_table("f", COLUMNS, ROWS)
    return db


def _snapshot(table) -> list:
    out = []
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
    assert [source for _, source in definitions[1].lattice] == [None, 0]
    assert [source for _, source in definitions[2].lattice] \
        == [None, 0, 1]
    assert definitions[3].vplans[0].totals == ()


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
