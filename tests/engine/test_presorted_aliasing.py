"""A presorted ORDER BY result shares its columns with its source.

When the rows are already in ORDER BY order, ``_apply_order`` returns
them as they are instead of a fresh gather, so a ``SELECT * ... ORDER
BY k`` result holds the table's own column arrays.  Writes publish new
versions and never touch those arrays: the result read before an
UPDATE, an INSERT and a checkpoint must read the same afterwards, bit
for bit, on memory and on a disk store whose pool is too small to
keep the table -- and through a DB-API cursor fetched across them.
"""

import numpy as np
import pytest

from repro import Database
from repro.api import dbapi

SQL = "SELECT * FROM t ORDER BY k, s DESC"
ROWS = [(k, s, x) for k in range(40)
        for s, x in (("b", k * 0.5), ("a", None), (None, -0.0))]


def _open(storage: str, tmp_path) -> Database:
    if storage == "memory":
        return Database(tracing=True)
    return Database(tracing=True, storage="disk",
                    storage_path=str(tmp_path / "store"), pool_pages=4,
                    page_size=256)


def _load(db: Database) -> None:
    db.execute("CREATE TABLE t (k INTEGER, s VARCHAR, x REAL)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        "(" + ", ".join("NULL" if v is None else repr(v) for v in row)
        + ")" for row in ROWS))


def _writes(db: Database) -> None:
    db.execute("UPDATE t SET x = 7.0, s = 'z' WHERE k < 20")
    db.execute("INSERT INTO t VALUES (-1, 'q', 1.0), (99, NULL, 2.0)")
    db.checkpoint()


def _snapshot(table) -> list:
    return [(name, table.column(name).values.tobytes()
             if table.column(name).values.dtype != object
             else list(table.column(name).values),
             table.column(name).nulls.tobytes())
            for name in table.column_names()]


def _presorted(db: Database) -> bool:
    sorts = [span for root in db.tracer.roots()
             for span in root.find(name="sort")]
    return sorts[-1].attrs["presorted"]


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_presorted_result_survives_later_writes(storage, tmp_path):
    with _open(storage, tmp_path) as db:
        _load(db)
        result = db.execute(SQL)
        assert _presorted(db)
        rows, arrays = result.to_rows(), _snapshot(result)
        assert rows == ROWS
        _writes(db)
        assert result.to_rows() == rows
        assert _snapshot(result) == arrays
        # The table did change: the writes reached it, not the result.
        assert db.execute(SQL).to_rows() != rows


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_cursor_fetch_across_writes(storage, tmp_path):
    with _open(storage, tmp_path) as db:
        _load(db)
        connection = dbapi.connect(db)
        reader = connection.cursor().execute(SQL)
        assert _presorted(db)
        first = reader.fetchmany(7)
        _writes(db)
        rest = reader.fetchall()
        assert first + rest == ROWS
        connection.close()


def test_out_of_order_rows_still_sort(tmp_path):
    """The same statement over rows in reverse takes the sort."""
    with _open("memory", tmp_path) as db:
        db.execute("CREATE TABLE t (k INTEGER, s VARCHAR, x REAL)")
        db.execute("INSERT INTO t VALUES (2, 'a', 1.0), (1, 'b', 2.0), "
                   "(1, NULL, 3.0)")
        assert db.execute(SQL).to_rows() == [
            (1, "b", 2.0), (1, None, 3.0), (2, "a", 1.0)]
        assert not _presorted(db)
        assert np.array_equal(
            db.execute("SELECT k FROM t ORDER BY 1").column("k").values,
            [1, 1, 2])
