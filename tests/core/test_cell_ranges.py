"""A wide Hpct's cells travel as ranges: the objects one op makes
scale with its type runs and distinct BY values, not with its cells.

One ``SELECT dweek, Hpct(salesamt BY dept, monthno) ... GROUP BY
dweek`` op at two widths (96 and 480 cells) counts the constructions
of :class:`~repro.engine.schema.ColumnDef`,
:class:`~repro.engine.schema.TableSchema` and
:class:`~repro.engine.column.EncodingMemo` and the calls of
:func:`~repro.core.naming.sanitize`.  A per-cell object creeping back
-- a column definition per cell in CREATE TABLE or in the assembled
result, a memo per projected cell -- makes the wider op's count
grow."""

import contextlib

import pytest

import repro.core.naming as naming
from repro import Database
from repro.core.execute import run_percentage_query
from repro.core.horizontal import HorizontalStrategy
from repro.engine.column import EncodingMemo
from repro.engine.schema import ColumnDef, TableSchema

SQL = ("SELECT dweek, Hpct(salesamt BY dept, monthno) FROM sales "
       "GROUP BY dweek")


def _sales(depts: int, months: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE sales (dweek INT, dept INT, monthno INT, "
               "salesamt REAL)")
    db.execute("INSERT INTO sales VALUES " + ", ".join(
        f"({w}, {d}, {m}, {(w * 7 + d * 3 + m) % 11 + 1}.0)"
        for w in range(1, 8) for d in range(1, depts + 1)
        for m in range(1, months + 1)))
    return db


@contextlib.contextmanager
def _counted():
    """Counts of the constructions and calls one op makes.  Every
    schema is made by the ``TableSchema`` constructor or by
    ``renamed``."""
    counts = {"ColumnDef": 0, "TableSchema": 0, "EncodingMemo": 0,
              "sanitize": 0}
    patched = [(ColumnDef, "__init__", "ColumnDef"),
               (EncodingMemo, "__init__", "EncodingMemo"),
               (TableSchema, "__init__", "TableSchema"),
               (TableSchema, "renamed", "TableSchema"),
               (naming, "sanitize", "sanitize")]
    originals = [getattr(owner, name) for owner, name, _ in patched]

    def counting(original, key):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return call

    try:
        for (owner, name, key), original in zip(patched, originals):
            setattr(owner, name, counting(original, key))
        yield counts
    finally:
        for (owner, name, _), original in zip(patched, originals):
            setattr(owner, name, original)


@pytest.mark.parametrize("source", ["F", "FV"])
def test_an_op_makes_objects_per_run_not_per_cell(source):
    strategy = HorizontalStrategy(source=source)
    per_width = {}
    for depts, months in ((8, 12), (40, 12)):
        db = _sales(depts, months)
        run_percentage_query(db, SQL, strategy)
        with _counted() as counts:
            result = run_percentage_query(db, SQL, strategy)
            assert len(result.to_rows()) == 7
        assert result.schema.width() == 1 + depts * months
        # Each distinct BY value is sanitized once.
        assert counts.pop("sanitize") == depts + months
        per_width[depts * months] = counts
    narrow, wide = per_width[96], per_width[480]
    assert narrow == wide, per_width
    assert wide["ColumnDef"] <= 4
    assert wide["EncodingMemo"] <= 10
    assert wide["TableSchema"] <= 24
