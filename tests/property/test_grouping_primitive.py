"""Property-based tests for the sort-free grouping primitive.

``engine/groupby.py`` ranks dictionary codes with a counting pass when
the code space is small for the row count and with ``np.unique``
otherwise; ``first_positions`` is one ``np.minimum.at``; the dense
``count(DISTINCT)`` kernel marks a bitmap.  Each must be the *same
array* the sort-based definition yields -- values and dtypes -- so the
references below are those definitions, kept here verbatim.  A spy on
``np.unique`` says which side of the density rule ran, so a test fails
if either side of a branch is deleted.  Last, the encoding memos: after
any history of DML, derived tables and rollbacks, every memo a query
filled is the encoding its column has now.
"""

import shutil
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine import groupby, kernels
from repro.engine.column import ColumnData
from repro.engine.groupby import (counting_pass_fits, first_positions,
                                  group_rows)
from repro.engine.types import SQLType
from repro.errors import CatalogError


def _bound(n_rows: int) -> int:
    """The largest code space the counting pass takes for ``n_rows``."""
    space = 1
    while counting_pass_fits(space * 2, n_rows):
        space *= 2
    while counting_pass_fits(space + 1, n_rows):
        space += 1
    return space


def _spaces(n_rows: int):
    """Code spaces well inside, right at, and beyond the density bound
    (the far side stays small enough that a bitmap over it would be
    harmless, so a deleted branch fails the spy, not the host)."""
    bound = _bound(n_rows)
    return st.one_of(st.integers(1, 40),
                     st.integers(bound - 2, bound + 2),
                     st.integers(bound + 1, 4 * bound))


@st.composite
def ranked_codes(draw):
    n_rows = draw(st.integers(0, 60))
    space = draw(_spaces(n_rows))
    # A small pool so groups collide; code 0 (NULL) in or out.
    pool = draw(st.lists(st.integers(min(1, space - 1), space - 1),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        pool.append(0)
    codes = draw(st.lists(st.sampled_from(pool), min_size=n_rows,
                          max_size=n_rows))
    return np.asarray(codes, dtype=np.int64), space


def _spied(call):
    """``call()``'s result and how many times it reached ``np.unique``."""
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        result = call()
    return result, spy.call_count


def _same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@given(ranked_codes())
@example((np.empty(0, dtype=np.int64), 1))            # n = 0
@example((np.zeros(5, dtype=np.int64), 1))            # one group, all NULL
@example((np.full(5, 7, dtype=np.int64), 9))          # one group, no NULL
@settings(max_examples=150, deadline=None)
def test_counting_pass_ranks_like_np_unique(case):
    codes, space = case
    expected_present, expected_ids = np.unique(codes, return_inverse=True)
    (present, group_ids), sorts = _spied(
        lambda: groupby._rank_codes(codes, space))
    _same(present, expected_present)
    _same(group_ids, expected_ids.astype(np.int64))
    assert sorts == (0 if counting_pass_fits(space, len(codes)) else 1)


def test_density_bound_is_sharp_and_admits_dense_codes():
    for n_rows in (0, 1, 60, 300_000):
        bound = _bound(n_rows)
        assert counting_pass_fits(bound, n_rows)
        assert not counting_pass_fits(bound + 1, n_rows)
        assert bound >= 4 * n_rows  # dense dictionary codes always fit


@st.composite
def key_tables(draw):
    """1-4 key columns; with near-unique values over a few dozen rows
    the product of cardinalities crosses the density bound from three
    columns up, so both rankers see multi-column input."""
    n_keys = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 70))
    spread = draw(st.sampled_from((2, 400)))
    value = st.one_of(st.none(), st.integers(0, spread))
    return [draw(st.lists(value, min_size=n_rows, max_size=n_rows))
            for _ in range(n_keys)]


def _int_column(values) -> ColumnData:
    nulls = np.array([v is None for v in values], dtype=bool)
    data = np.array([0 if v is None else v for v in values],
                    dtype=np.int64)
    return ColumnData(SQLType.INTEGER, data, nulls)


@given(key_tables())
@example([[], []])
@example([[None, None, None]])
@example([[3, 3, 3], [None, None, None]])
@settings(max_examples=150, deadline=None)
def test_group_rows_matches_the_lexicographic_ranking(keys):
    n_rows = len(keys[0])
    grouping = group_rows([_int_column(k) for k in keys], n_rows)
    # Mixed-radix order is lexicographic order on the code tuples, so
    # np.unique over stacked code rows is the reference for every path.
    matrix = np.stack([enc.codes for enc in grouping.encodings], axis=1)
    present, inverse = np.unique(matrix, axis=0, return_inverse=True)
    assert grouping.n_groups == len(present)
    _same(grouping.key_codes, present)
    _same(grouping.group_ids, inverse.reshape(-1).astype(np.int64))


def _first_positions_by_sort(group_ids, n_groups):
    if n_groups == 0:
        return np.empty(0, dtype=np.int64)
    if len(group_ids) == 0:
        return np.zeros(n_groups, dtype=np.int64)
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return order[starts]


@given(st.lists(st.integers(0, 12), min_size=0, max_size=80))
@settings(max_examples=150, deadline=None)
def test_first_positions_matches_the_argsort_definition(raw):
    # Dense ids, as every factorization yields: each of range(n_groups)
    # occurs.
    _, group_ids = np.unique(np.asarray(raw, dtype=np.int64),
                             return_inverse=True)
    group_ids = group_ids.astype(np.int64)
    n_groups = int(group_ids.max()) + 1 if len(group_ids) else 0
    _same(first_positions(group_ids, n_groups),
          _first_positions_by_sort(group_ids, n_groups))


def test_first_positions_over_an_empty_input():
    empty = np.empty(0, dtype=np.int64)
    _same(first_positions(empty, 0), _first_positions_by_sort(empty, 0))
    # The global group of an aggregation without GROUP BY.
    _same(first_positions(empty, 1), _first_positions_by_sort(empty, 1))


def _count_distinct_by_sort(codes, cardinality, group_ids, n_groups):
    valid = codes != 0
    pairs = group_ids[valid] * np.int64(cardinality) + codes[valid]
    owner = np.unique(pairs) // np.int64(cardinality)
    return np.bincount(owner, minlength=n_groups).astype(np.int64)


@st.composite
def distinct_inputs(draw):
    n_rows = draw(st.integers(0, 60))
    space = draw(_spaces(n_rows))
    n_groups = draw(st.integers(1, min(space, 400)))
    cardinality = max(1, space // n_groups)
    all_null = draw(st.integers(0, 3)) == 0
    code = st.just(0) if all_null else st.integers(0, cardinality - 1)
    codes = draw(st.lists(code, min_size=n_rows, max_size=n_rows))
    group_ids = draw(st.lists(st.integers(0, n_groups - 1),
                              min_size=n_rows, max_size=n_rows))
    return (np.asarray(codes, dtype=np.int64), cardinality,
            np.asarray(group_ids, dtype=np.int64), n_groups)


@given(distinct_inputs())
@example((np.zeros(4, dtype=np.int64), 1,
          np.array([0, 1, 1, 0], dtype=np.int64), 2))   # all NULL, dense
@example((np.zeros(4, dtype=np.int64), 500,
          np.array([0, 1, 1, 0], dtype=np.int64), 400))  # all NULL, sparse
@example((np.empty(0, dtype=np.int64), 3,
          np.empty(0, dtype=np.int64), 0))
@settings(max_examples=150, deadline=None)
def test_dense_count_distinct_matches_the_pair_sort(case):
    codes, cardinality, group_ids, n_groups = case
    state, sorts = _spied(lambda: kernels.kernel_count_distinct(
        codes, cardinality, group_ids, n_groups))
    assert state.sql_type == SQLType.INTEGER
    _same(state.values, _count_distinct_by_sort(codes, cardinality,
                                                group_ids, n_groups))
    assert not state.nulls.any() and len(state.nulls) == n_groups
    dense = counting_pass_fits(n_groups * cardinality, len(codes))
    assert sorts == (0 if dense else 1)


@pytest.mark.parametrize("n_keys", [1, 2])
def test_dense_group_by_never_sorts_row_length_arrays(n_keys):
    # The engine-level statement of the point: grouping dictionary
    # codes whose space fits reaches np.unique only to *encode* (once
    # per key column), never to rank or to find first rows.
    rng = np.random.default_rng(0)
    columns = [_int_column(rng.integers(0, 9, 500).tolist())
               for _ in range(n_keys)]

    def run():
        grouping = group_rows(columns, 500)
        first_positions(grouping.group_ids, grouping.n_groups)

    assert _spied(run)[1] == n_keys


# ----------------------------------------------------------------------
# Encoding memos never go stale
# ----------------------------------------------------------------------
def _literal(value) -> str:
    return "NULL" if value is None else repr(value)


_VALUE = st.one_of(st.none(), st.integers(0, 3)).map(_literal)
_KEY = st.one_of(st.none(), st.sampled_from("abc")).map(_literal)

#: Statements over ``f (k VARCHAR, d INT, m REAL)`` and its derived
#: copy ``g``; each runs alone, or inside a savepoint it rolls back.
_STATEMENTS = st.one_of(
    st.builds("INSERT INTO f VALUES ({}, {}, {})".format,
              _KEY, _VALUE, _VALUE),
    st.builds("UPDATE f SET d = {} WHERE k = {!r}".format,
              st.integers(0, 3), st.sampled_from("abc")),
    st.builds("UPDATE f SET k = {!r} WHERE d = {}".format,
              st.sampled_from("abc"), st.integers(0, 3)),
    st.builds("DELETE FROM f WHERE d = {}".format, st.integers(0, 3)),
    st.just("CREATE TABLE g AS SELECT * FROM f"),
    st.just("DROP TABLE IF EXISTS g"),
)
_HISTORY = st.lists(st.tuples(_STATEMENTS, st.booleans()), max_size=8)

#: Queries that fill the memos of every column of both tables: group-by
#: keys, DISTINCT, count(DISTINCT) and the join build.
_FILL = ("SELECT k, d, sum(m) FROM f GROUP BY k, d",
         "SELECT DISTINCT m FROM f",
         "SELECT k, count(DISTINCT d) FROM g GROUP BY k",
         "SELECT f.k, count(*) FROM f, g WHERE f.d = g.d GROUP BY f.k")


def _check_memos(db: Database) -> int:
    """Hold every filled memo of the catalog's tables to a fresh
    encoding of its column; the number of filled memos."""
    filled = 0
    for name in db.table_names():
        table = db.table(name)
        for col_def in table.schema.columns:
            column = table.column(col_def.name)
            encoded = column.memo.encoded
            if encoded is None:
                continue
            filled += 1
            fresh = groupby._encode_values(column)
            _same(encoded.codes, fresh.codes)
            _same(encoded.uniques, fresh.uniques)
            assert encoded.sql_type == fresh.sql_type
    return filled


def _fill(db: Database) -> None:
    for query in _FILL:
        if " g" not in query or db.catalog.has_table("g"):
            db.query(query)


def _replay(db: Database, history) -> None:
    db.execute("CREATE TABLE f (k VARCHAR, d INT, m REAL)")
    db.execute("INSERT INTO f VALUES ('a', 1, 2), (NULL, 2, NULL)")
    for statement, rolled_back in history:
        savepoint = db.catalog.savepoint() if rolled_back else None
        try:
            db.execute(statement)
        except CatalogError:    # CREATE TABLE g while g exists
            pass
        _fill(db)
        if savepoint is not None:
            db.catalog.rollback(savepoint)
        _check_memos(db)
    _fill(db)
    assert _check_memos(db) > 0


@given(_HISTORY)
@settings(max_examples=60, deadline=None)
def test_filled_memos_match_a_fresh_encoding_in_memory(history):
    _replay(Database(), history)


@given(_HISTORY)
@settings(max_examples=20, deadline=None)
def test_filled_memos_match_a_fresh_encoding_on_disk(history):
    tmp = tempfile.mkdtemp(prefix="repro-prop-memo-")
    db = Database(storage="disk", storage_path=tmp, pool_pages=8,
                  page_size=256)
    try:
        _replay(db, history)
    finally:
        db.close()
        shutil.rmtree(tmp, ignore_errors=True)
