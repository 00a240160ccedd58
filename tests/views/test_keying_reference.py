"""View keying against its row-at-a-time reference.

``maintenance._assign_ids`` matches a batch against a level's live
slots with one grouping of the live keys followed by the batch's keys,
by the engine's grouping core.  The dict-of-normalized-keys loop it
replaced is kept here as the reference model: over adversarial keys
(NULLs, NaN, signed zeros, duplicates, a WHERE that drops rows) and a
DML script (births, deaths, migrations), both must leave *exactly* the
same observable state -- per-slot keys, membership counts, per-row
ids and measure columns -- not merely the same query answers.
"""

from typing import Any

import numpy as np
import pytest

from repro.api.database import Database
from repro.engine.expressions import evaluate
from repro.sql import ast
from repro.views import maintenance


class _NanKey:
    """Dictionary-stable stand-in for NaN key components."""

    __slots__ = ()


NAN_KEY = _NanKey()


def normalize_component(value: Any) -> Any:
    """A hashable, self-equal form of one key component."""
    if isinstance(value, float) and value != value:
        return NAN_KEY
    return value


def normalize_key(values: tuple) -> tuple:
    return tuple(normalize_component(v) for v in values)


def _assign_ids_reference(definition, level, table, positions, stats):
    sub, frame = maintenance._frame_over(definition, table, positions,
                                         stats)
    n = sub.n_rows
    passing = maintenance._where_mask(definition, frame, n, stats)
    key_cols = [evaluate(ast.ColumnRef(name=c), frame, stats)
                for c in level.columns]
    index = {normalize_key(tuple(key[s] for key in level.keys)): int(s)
             for s in level.live()}
    counts = level.counts.tolist()
    ids = np.full(n, -1, dtype=np.int64)
    born: list[int] = []
    for i in range(n):
        if not passing[i]:
            continue
        key = normalize_key(tuple(col[i] for col in key_cols))
        slot = index.get(key)
        if slot is None:
            slot = index[key] = len(counts)
            counts.append(0)
            born.append(i)
        counts[slot] += 1
        ids[i] = slot
    if born:
        level.grow([col.take(np.array(born, dtype=np.int64))
                    for col in key_cols])
    level.counts = np.array(counts, dtype=np.int64)
    return ids, np.unique(ids[ids >= 0]), bool(born)


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
    # Retract every slot, then bring old keys back: slot numbers are
    # never reused, so they come back as new slots.
    "DELETE FROM f",
    "INSERT INTO f VALUES (2.0, 'b', 1.0), (NULL, 'a', 4.0), "
    "(2.0, 'b', -3.0), (NULL, NULL, 6.0)",
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
    out = [(level.columns,
            [(key.sql_type, key.to_pylist()) for key in level.keys],
            level.counts.tolist(), level.group_ids.tolist(),
            [(values.sql_type, values.to_pylist())
             for values in level.values])
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


@pytest.mark.parametrize("nan_rows", [False, True])
@pytest.mark.parametrize("view", VIEWS)
def test_a_build_is_an_insert_into_an_empty_view(view, nan_rows):
    """A view created over every row leaves exactly the state of one
    created over an empty table that then receives those rows."""
    built = _database(nan_rows)
    built.execute(f"CREATE MATERIALIZED VIEW v AS {view}")
    inserted = _database(nan_rows)
    inserted.execute_script("""
        CREATE TABLE g AS SELECT * FROM f;
        DELETE FROM f
    """)
    inserted.execute(f"CREATE MATERIALIZED VIEW v AS {view}")
    inserted.execute("INSERT INTO f SELECT * FROM g")
    assert _states(inserted) == _states(built)
