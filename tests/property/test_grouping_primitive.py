"""Property-based tests for the sort-free grouping primitive.

``engine/groupby.py`` ranks dictionary codes with a counting pass when
the code space is small for the row count and with ``np.unique``
otherwise; ``first_positions`` is one ``np.minimum.at``; the dense
``count(DISTINCT)`` kernel marks a bitmap.  Each must be the *same
array* the sort-based definition yields -- values and dtypes -- so the
references below are those definitions, kept here verbatim.  So must
the encoding of a dense INTEGER column, which counts instead of
calling ``np.unique``.  A spy on
``np.unique`` says which side of the density rule ran, so a test fails
if either side of a branch is deleted.  A full dictionary -- every
encoding ``_encode_values`` builds -- is grouped without ranking; its
grouping must be the ranked one, first rows included, and no encoding
built by hand claims to be full.  Last, the encoding memos: after any
history of DML, derived tables and rollbacks, every memo a query
filled is the encoding its column has now, and the first rows it keeps
are a fresh pass's.
"""

import math
import shutil
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine import groupby, kernels, pivot
from repro.engine.aggregates import compute_aggregate
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


def _key_column(kind: str, rng) -> ColumnData:
    """500 rows of a key column: dense INTEGER, VARCHAR, REAL, or
    INTEGER over a range far too sparse to count."""
    values = rng.integers(0, 9, 500)
    if kind == "varchar":
        return ColumnData.from_values(SQLType.VARCHAR,
                                      [f"v{v}" for v in values])
    if kind == "real":
        return ColumnData.from_values(SQLType.REAL, values / 2)
    if kind == "sparse":
        values = values * 10 ** 12
    return _int_column(values.tolist())


def _group_by_sorts(kind: str, n_keys: int) -> int:
    """How many times grouping 500 rows by ``n_keys`` columns of
    ``kind`` (and finding first rows) reaches ``np.unique``."""
    rng = np.random.default_rng(0)
    columns = [_key_column(kind, rng) for _ in range(n_keys)]

    def run():
        grouping = group_rows(columns, 500)
        first_positions(grouping.group_ids, grouping.n_groups)

    return _spied(run)[1]


@pytest.mark.parametrize("n_keys", [1, 2])
def test_dense_group_by_never_sorts_row_length_arrays(n_keys):
    # The engine-level statement of the point: grouping dictionary
    # codes whose space fits never sorts to rank or to find first
    # rows, and a dense INTEGER key is encoded by counting too.
    assert _group_by_sorts("dense", n_keys) == 0


@pytest.mark.parametrize("kind", ["varchar", "real", "sparse"])
@pytest.mark.parametrize("n_keys", [1, 2])
def test_keys_that_cannot_be_counted_sort_once_to_encode(kind, n_keys):
    # A VARCHAR, REAL or sparse INTEGER key reaches np.unique once, to
    # encode; the ranking still counts.
    assert _group_by_sorts(kind, n_keys) == n_keys


@st.composite
def integer_columns(draw):
    """An INTEGER column: NULLs in any share, a dense or sparse range
    anywhere in int64 (negative, around zero, at either extreme), one
    value or many, zero rows or some."""
    n_rows = draw(st.sampled_from((0, 1, draw(st.integers(2, 60)))))
    low = draw(st.sampled_from((-2 ** 63, -1000, -3, 0, 2 ** 40,
                                2 ** 63 - 64)))
    width = draw(st.sampled_from((1, 5, 64, 10 ** 9, 2 ** 64)))
    high = min(low + width - 1, 2 ** 63 - 1)
    pool = draw(st.lists(st.integers(low, high), min_size=1, max_size=8))
    if draw(st.booleans()):        # both int64 extremes: must fall back
        pool += [-2 ** 63, 2 ** 63 - 1]
    null_share = draw(st.sampled_from((0.0, 0.3, 1.0)))
    raw = [None if draw(st.floats(0, 1)) < null_share
           else draw(st.sampled_from(pool)) for _ in range(n_rows)]
    return _int_column(raw)


def _encoding_by_unique(column: ColumnData):
    """``_encode_values``' ``np.unique`` definition: sorted non-NULL
    uniques, codes 1-based ranks, NULL 0."""
    valid = ~column.nulls
    present = column.values[valid]
    uniques = np.unique(present)
    codes = np.zeros(len(column), dtype=np.int64)
    if len(uniques):
        codes[valid] = np.searchsorted(uniques, present) + 1
    return uniques, codes


@given(integer_columns())
@example(_int_column([]))
@example(_int_column([7]))
@example(_int_column([None, None]))
@example(_int_column([-5, None, -5, -1]))
@example(_int_column([-2 ** 63, 2 ** 63 - 1, 0]))
@example(_int_column([2 ** 63 - 1, 2 ** 63 - 2]))
@settings(max_examples=300, deadline=None)
def test_dense_integer_encoding_is_np_unique(column):
    uniques, codes = _encoding_by_unique(column)
    enc, sorts = _spied(lambda: groupby._encode_values(column))
    _same(enc.uniques, uniques)
    _same(enc.codes, codes)
    assert enc.sql_type == SQLType.INTEGER
    assert enc.full
    assert enc.has_null == bool(column.nulls.any())
    assert not enc.codes.flags.writeable
    present = column.values[~column.nulls]
    dense = len(present) > 0 and counting_pass_fits(
        int(present.max()) - int(present.min()) + 1, len(present))
    # Counting when the range is dense, np.unique otherwise -- over
    # nothing for an all-NULL column; a zero-row one calls neither.
    assert sorts == (0 if dense or len(column) == 0 else 1)


@pytest.mark.parametrize("n_values", [255, 256, 65_535, 65_536, 65_537])
def test_dense_ranks_fit_their_narrow_dtype(n_values):
    # The running count is kept in the narrowest dtype that holds the
    # largest rank: the last rank of each width, and the first past it.
    column = _int_column([None] + list(range(n_values, 0, -1)))
    uniques, codes = _encoding_by_unique(column)
    enc, sorts = _spied(lambda: groupby._encode_values(column))
    assert sorts == 0
    _same(enc.uniques, uniques)
    _same(enc.codes, codes)


# ----------------------------------------------------------------------
# A full dictionary groups by its codes
# ----------------------------------------------------------------------
_TYPED_VALUES = {
    SQLType.INTEGER: st.integers(-3, 3),
    SQLType.REAL: st.sampled_from((0.0, -0.0, 1.5, -2.0, math.nan)),
    SQLType.VARCHAR: st.sampled_from(("", "a", "b", "zz")),
}


@st.composite
def typed_columns(draw):
    """A column of any type with NULLs in any share: none, some, all;
    NaN (and -0.0 beside 0.0) among the REALs; zero or one row."""
    sql_type = draw(st.sampled_from(sorted(_TYPED_VALUES, key=str)))
    n_rows = draw(st.sampled_from((0, 1, draw(st.integers(2, 40)))))
    null_share = draw(st.sampled_from((0.0, 0.3, 1.0)))
    raw = [None if draw(st.floats(0, 1)) < null_share
           else draw(_TYPED_VALUES[sql_type]) for _ in range(n_rows)]
    return ColumnData.from_values(sql_type, raw)


def _ranked(enc):
    """The grouping, and its first rows, by ranking the codes."""
    present, group_ids = groupby._rank_codes(enc.codes, enc.cardinality)
    return (groupby.Grouping(group_ids, len(present),
                             present.reshape(-1, 1), [enc]),
            first_positions(group_ids, len(present)))


@given(typed_columns())
@example(ColumnData.from_values(SQLType.REAL, []))
@example(ColumnData.from_values(SQLType.VARCHAR, [None]))
@example(ColumnData.from_values(SQLType.INTEGER, [None, None]))
@example(ColumnData.from_values(SQLType.REAL, [math.nan, None, math.nan]))
@settings(max_examples=200, deadline=None)
def test_a_full_dictionary_groups_like_the_ranking(column):
    enc = groupby._encode_values(column)
    assert enc.full
    assert enc.has_null == bool(column.nulls.any())
    # Every code 1..len(uniques) occurs; code 0 exactly when NULLs do.
    assert set(enc.codes.tolist()) == \
        set(range(0 if enc.has_null else 1, enc.cardinality))
    expected, expected_firsts = _ranked(enc)
    with mock.patch.object(groupby, "_rank_codes") as rank:
        grouping = groupby.group_encoded([enc])
        firsts = grouping.first_rows()
    assert not rank.called
    assert grouping.n_groups == expected.n_groups
    _same(grouping.group_ids, expected.group_ids)
    _same(grouping.key_codes, expected.key_codes)
    _same(firsts, expected_firsts)
    # Kept on the encoding: the second grouping reads the same array.
    assert groupby.group_encoded([enc]).first_rows() is firsts
    # DISTINCT's positions are the ranked firsts in row order.
    _same(groupby.distinct_indices([column], len(column)),
          np.sort(expected_firsts) if len(column)
          else np.empty(0, dtype=np.int64))


@given(typed_columns())
@settings(max_examples=100, deadline=None)
def test_one_group_count_distinct_reads_the_dictionary(column):
    enc = groupby._encode_values(column)
    group_ids = np.zeros(len(column), dtype=np.int64)
    expected = kernels.kernel_count_distinct(enc.codes, enc.cardinality,
                                             group_ids, 1)
    with mock.patch.object(kernels, "kernel_count_distinct") as kernel:
        state = compute_aggregate("count", column, True, group_ids, 1)
    assert not kernel.called
    assert state.sql_type == expected.sql_type
    _same(state.values, expected.values)
    _same(state.nulls, expected.nulls)


def test_a_dictionary_hands_out_read_only_codes():
    column = ColumnData.from_values(SQLType.INTEGER, [2, None, 2, 5])
    enc = groupby._encode_values(column)
    grouping = groupby.group_encoded([enc])
    assert grouping.group_ids is enc.codes      # NULLs: the codes as is
    for array in (enc.codes, grouping.group_ids, grouping.first_rows()):
        with pytest.raises(ValueError):
            array[0] = 1
    # Without NULLs the group ids are a shifted copy, the codes intact.
    enc = groupby._encode_values(
        ColumnData.from_values(SQLType.INTEGER, [2, 2, 5]))
    _same(groupby.group_encoded([enc]).group_ids,
          np.array([0, 0, 1], dtype=np.int64))
    _same(enc.codes, np.array([1, 1, 2], dtype=np.int64))


def test_the_global_group_carries_row_zero():
    for n_rows in (0, 3):
        _same(group_rows([], n_rows).first_rows(),
              np.zeros(1, dtype=np.int64))


@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from("abc")),
                max_size=30),
       st.sampled_from((1, 3)))
@settings(max_examples=60, deadline=None)
def test_hand_built_encodings_never_claim_to_be_full(rows, n_groups):
    """The pivot kernel's group-id column keeps a real group on code 0
    and its combination columns need not hold every dictionary value:
    neither may take the dictionary path."""
    n_rows = len(rows)
    group_ids = np.asarray([g % n_groups for g, _ in rows],
                           dtype=np.int64)
    pivot_column = ColumnData.from_values(SQLType.VARCHAR,
                                          [v for _, v in rows])
    cells, combos, _ = pivot._cells({0: pivot_column}, group_ids,
                                    n_groups if n_rows else 1, None)
    hand_built = [cells.encodings[0]] + combos.encodings
    assert not any(enc.full for enc in hand_built)
    assert cells.encodings[1].full    # the pivot column's own encoding


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
#: A DISTINCT and a single-key GROUP BY keep first rows on their memos.
_FILL = ("SELECT k, d, sum(m) FROM f GROUP BY k, d",
         "SELECT DISTINCT m FROM f",
         "SELECT k, count(DISTINCT d) FROM g GROUP BY k",
         "SELECT count(DISTINCT k) FROM f",
         "SELECT d, sum(m) FROM f GROUP BY d",
         "SELECT f.k, count(*) FROM f, g WHERE f.d = g.d GROUP BY f.k")


def _check_memos(db: Database) -> tuple[int, int]:
    """Hold every filled memo of the catalog's tables to a fresh
    encoding of its column, and the first rows a memo keeps to a fresh
    pass over that encoding's grouping; the number of filled memos and
    of memos keeping first rows."""
    filled = kept = 0
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
            assert (encoded.full, encoded.has_null) == \
                (fresh.full, fresh.has_null)
            assert not encoded.codes.flags.writeable
            if encoded.firsts is not None:
                kept += 1
                _same(encoded.firsts, _ranked(fresh)[1])
    return filled, kept


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
    filled, kept = _check_memos(db)
    assert filled > 0 and kept > 0


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
