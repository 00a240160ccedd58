"""View keying against its row-at-a-time reference.

``maintenance._assign_ids`` groups rows with the engine's grouping
core and probes the slot index once per distinct key.  The loop it
replaced is kept here as the reference: over adversarial keys (NULLs,
NaN, signed zeros, duplicates, a WHERE that drops rows) and a DML
script (births, deaths, migrations), both must leave *exactly* the
same state -- slot numbering, representative keys, membership counts
and per-row ids -- not merely the same query answers.
"""

import numpy as np
import pytest

from repro.api.database import Database
from repro.engine.expressions import evaluate
from repro.sql import ast
from repro.views import maintenance
from repro.views.state import normalize_key


def _assign_ids_reference(definition, level, table, positions, stats):
    sub, frame = maintenance._frame_over(definition, table, positions,
                                         stats)
    n = sub.n_rows
    passing = maintenance._where_mask(definition, frame, n, stats)
    key_cols = [evaluate(ast.ColumnRef(name=c), frame, stats)
                for c in level.columns]
    ids = np.full(n, -1, dtype=np.int64)
    touched: set[int] = set()
    births = False
    for i in range(n):
        if not passing[i]:
            continue
        raw = tuple(col[i] for col in key_cols)
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
        level.counts[slot] += 1
        ids[i] = slot
        touched.add(slot)
    return ids, touched, births


SETUP = """
    CREATE TABLE f (k REAL, s VARCHAR, a REAL);
    INSERT INTO f VALUES
        (2.0, 'b', 1.0), (0.0, 'a', 2.0), (-0.0, 'a', 3.0),
        (NULL, 'a', 4.0), (2.0, NULL, 5.0), (NULL, NULL, 6.0),
        (2.0, 'b', 7.0), (1.5, 'it''s', -8.0), (NULL, 'a', 9.0),
        (7.0, 'gone', 0.0)
"""
DML = [
    "INSERT INTO f VALUES (9.0, 'new', 1.0), (2.0, 'b', 2.0), "
    "(NULL, 'a', -1.0)",
    "UPDATE f SET k = 0.0 WHERE s = 'b'",
    "DELETE FROM f WHERE s = 'gone'",
    "UPDATE f SET a = -1.0 WHERE k IS NULL",
    "INSERT INTO f VALUES (7.0, 'gone', 3.0)",
]
VIEWS = [
    "SELECT k, s, Vpct(a BY s) FROM f GROUP BY k, s",
    "SELECT s, sum(a), count(*) FROM f WHERE a > 0 GROUP BY s",
    "SELECT k, Hpct(a BY s) FROM f GROUP BY k",
]


def _database(nan_rows: bool) -> Database:
    db = Database()
    db.execute_script(SETUP)
    if nan_rows:
        # No NaN literal in SQL: append two NaN-keyed rows in bulk.
        table = db.table("f")
        rows = table.to_rows() + [(float("nan"), "a", 1.0),
                                  (float("nan"), "a", 2.0)]
        db.load_table("f", [("k", "real"), ("s", "varchar"),
                            ("a", "real")], rows, replace=True)
    return db


def _states(db: Database) -> str:
    out = [(level.columns, dict(level.slots), list(level.keys),
            list(level.counts), level.group_ids.tolist(),
            [list(v) for v in level.values])
           for level in db.catalog.matview("v").state.levels]
    return repr(out)  # repr: NaN != NaN would fail a plain ==


@pytest.mark.parametrize("nan_rows", [False, True])
@pytest.mark.parametrize("view", VIEWS)
def test_grouped_keying_equals_the_row_loop(monkeypatch, view, nan_rows):
    def run(reference: bool) -> list[str]:
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(maintenance, "_assign_ids",
                              _assign_ids_reference)
            db = _database(nan_rows)
            db.execute(f"CREATE MATERIALIZED VIEW v AS {view}")
            states = [_states(db)]
            for statement in DML:
                db.execute(statement)
                states.append(_states(db))
            return states

    assert run(reference=False) == run(reference=True)
