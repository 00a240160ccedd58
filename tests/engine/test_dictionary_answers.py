"""A grouping over one full dictionary reads its encoding.

``SELECT DISTINCT c`` and ``SELECT count(DISTINCT c)`` -- the shapes of
the generators' DISCOVER statement and the optimizer's selectivity
probe -- are answered from the column's dictionary: the codes are the
group ids, the first rows are kept on the encoding, and a one-group
``count(DISTINCT)`` is the number of values.  Each test runs the same
statements twice, once as they run and once with the dictionary's
knowledge withheld (every encoding built as not full, so grouping ranks
its codes, finds first rows by a pass over the rows and counts through
the kernel), and holds the rows and every statement's logical I/O to
the withheld run -- over NULLs, NaN, VARCHAR and an empty table, under
a WHERE (a fresh encoding, not the memo), after INSERT and UPDATE (a
new memo), and on the disk backend.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import tempfile
from unittest import mock

import pytest

from repro import Database
from repro.engine import groupby, kernels

_COLUMNS = [("i", "int"), ("r", "real"), ("s", "varchar")]
_ROWS = [(1, 0.5, "b"), (None, math.nan, None), (2, math.nan, "a"),
         (1, None, "b"), (None, 0.5, "c"), (3, 2.0, None)]


def _statements(column: str, table: str = "t",
                where: str = "") -> list[str]:
    return [f"SELECT count(DISTINCT {column}) FROM {table}{where}",
            f"SELECT DISTINCT {column} FROM {table}{where} "
            f"ORDER BY {column}"]


def _key(row: tuple) -> tuple:
    """A row with NaN made comparable (NaN != NaN)."""
    return tuple("NaN" if isinstance(v, float) and math.isnan(v) else v
                 for v in row)


def _withheld():
    """Every encoding built as not full: the ranking path."""
    encode = groupby._encode_values

    def not_full(col):
        return dataclasses.replace(encode(col), full=False)
    return mock.patch.object(groupby, "_encode_values", not_full)


def _run(db: Database, script: list[str]) -> list[tuple]:
    """Each SELECT's ``(sql, rows, logical I/O)``; DML just runs."""
    outcomes = []
    for sql in script:
        if not sql.startswith("SELECT"):
            db.execute(sql)
            continue
        rows = [_key(row) for row in db.query(sql)]
        outcomes.append(
            (sql, rows, db.executor.scopes.last.counters.logical_io()))
    return outcomes


def _fresh(storage: str, tmp: str):
    if storage == "disk":
        return Database(storage="disk", storage_path=tmp, pool_pages=8,
                        page_size=256)
    return Database()


def _both(script: list[str], storage: str = "memory"
          ) -> tuple[list, list]:
    """``script`` as it runs and with the dictionary withheld: each
    run's outcomes.  The answered run never ranks codes nor enters
    the count(DISTINCT) kernel; the withheld run does both, so the
    comparison is between the two paths."""
    runs = []
    for withhold in (False, True):
        tmp = tempfile.mkdtemp(prefix="repro-dict-")
        db = _fresh(storage, tmp)
        try:
            db.load_table("t", _COLUMNS, _ROWS)
            db.load_table("e", _COLUMNS, [])
            with mock.patch.object(groupby, "_rank_codes",
                                   wraps=groupby._rank_codes) as rank, \
                    mock.patch.object(kernels, "kernel_count_distinct",
                                      wraps=kernels.kernel_count_distinct
                                      ) as count:
                if withhold:
                    with _withheld():
                        runs.append(_run(db, script))
                else:
                    runs.append(_run(db, script))
            took = rank.call_count > 0, count.call_count > 0
            assert took == ((True, True) if withhold else (False, False))
        finally:
            db.close()
            shutil.rmtree(tmp, ignore_errors=True)
    return runs[0], runs[1]


def _assert_same(answered: list, withheld: list) -> None:
    assert answered == withheld
    assert all(io > 0 for sql, _, io in answered if " FROM t" in sql)


@pytest.mark.parametrize("storage", ["memory", "disk"])
@pytest.mark.parametrize("column", ["i", "r", "s"])
def test_null_nan_and_varchar_columns(column, storage):
    script = _statements(column) * 2        # the second run reads the memo
    answered, withheld = _both(script, storage)
    _assert_same(answered, withheld)


def test_the_answers_themselves():
    answered, _ = _both(
        _statements("i") + _statements("r") + _statements("s"))
    rows = {sql: rows for sql, rows, _ in answered}
    assert rows["SELECT count(DISTINCT i) FROM t"] == [(3,)]
    assert rows["SELECT DISTINCT i FROM t ORDER BY i"] == \
        [(None,), (1,), (2,), (3,)]
    # NaN is one value; NULL is not counted.
    assert rows["SELECT count(DISTINCT r) FROM t"] == [(3,)]
    assert rows["SELECT count(DISTINCT s) FROM t"] == [(3,)]
    assert rows["SELECT DISTINCT s FROM t ORDER BY s"] == \
        [(None,), ("a",), ("b",), ("c",)]


@pytest.mark.parametrize("storage", ["memory", "disk"])
@pytest.mark.parametrize("column", ["i", "r", "s"])
def test_an_empty_table(column, storage):
    answered, withheld = _both(_statements(column, table="e"), storage)
    assert answered == withheld
    assert [rows for _, rows, _ in answered] == [[(0,)], []]


@pytest.mark.parametrize("column", ["i", "r", "s"])
def test_a_where_encodes_afresh(column):
    where = " WHERE i IS NULL OR i > 1"
    answered, withheld = _both(_statements(column, where=where))
    _assert_same(answered, withheld)


@pytest.mark.parametrize("storage", ["memory", "disk"])
@pytest.mark.parametrize("column", ["i", "r", "s"])
def test_after_insert_and_update(column, storage):
    statements = _statements(column)
    script = (statements
              + ["INSERT INTO t VALUES (7, 9.5, 'z'), (NULL, NULL, NULL)"]
              + statements
              + ["UPDATE t SET i = 5, r = 1.5, s = 'q' WHERE i = 1"]
              + statements)
    answered, withheld = _both(script, storage)
    _assert_same(answered, withheld)
    after = {sql: rows for sql, rows, _ in answered[-2:]}
    # i: 2 3 5 7; r: 0.5 1.5 2.0 9.5 NaN; s: a c q z
    assert after[statements[0]] == [({"i": 4, "r": 5, "s": 4}[column],)]
