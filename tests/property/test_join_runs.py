"""The join probes by runs and returns what the row-by-row probe
returns, index for index.

``join.match`` finds the runs of adjacent probe rows with equal keys
(``join.run_heads``); when they are at most half the rows it probes
only each run's head and hands every row of the run its head's
matches, else it probes every row with ``join.probe``.  The reference
is ``join.probe`` over every row against the same prepared build side:
both must give the same ``(probe, build)`` arrays -- values, dtypes,
order -- for inner and left joins, null-safe and ordinary keys, NULL
and NaN keys, duplicate build keys, probe sides that are ordered,
clustered or shuffled, and empty sides.  The runs themselves are held
to a row-by-row definition: NULL equals NULL, NaN never equals NaN.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import join
from repro.engine.column import ColumnData
from repro.engine.join import match, prepare_side, probe, run_heads
from repro.engine.types import SQLType

#: One small pool per key type, so keys collide within and across sides.
_POOLS = {
    SQLType.INTEGER: st.one_of(st.none(), st.integers(-2, 3)),
    SQLType.REAL: st.one_of(st.none(), st.sampled_from(
        (0.0, -0.0, 1.5, -2.0, math.nan))),
    SQLType.VARCHAR: st.one_of(st.none(), st.sampled_from(
        ("", "a", "b", "zz"))),
}
_TYPES = sorted(_POOLS, key=str)


def _sort_key(value):
    """NULL first, NaN last: a total order on one key's values."""
    if value is None:
        return (0, 0)
    if isinstance(value, float) and math.isnan(value):
        return (2, 0)
    return (1, value)


@st.composite
def join_cases(draw):
    """A build side, a probe side in one of three arrangements, the
    null-safe flags and the join kind."""
    types = draw(st.lists(st.sampled_from(_TYPES), min_size=1,
                          max_size=2))
    row = st.tuples(*[_POOLS[t] for t in types])
    build = draw(st.lists(row, max_size=12))
    # Probe runs: each distinct row repeated, then arranged.
    runs = draw(st.lists(st.tuples(row, st.integers(1, 6)), max_size=10))
    probe_rows = [r for r, length in runs for _ in range(length)]
    arrangement = draw(st.sampled_from(("ordered", "clustered",
                                        "shuffled")))
    if arrangement == "ordered":
        probe_rows.sort(key=lambda r: tuple(_sort_key(v) for v in r))
    elif arrangement == "shuffled":
        probe_rows = draw(st.permutations(probe_rows))
    null_safe = tuple(draw(st.lists(st.booleans(), min_size=len(types),
                                    max_size=len(types))))
    return types, build, probe_rows, null_safe, draw(st.booleans())


def _columns(types, rows):
    return [ColumnData.from_values(t, [r[i] for r in rows])
            for i, t in enumerate(types)]


def _same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def _equal(a, b) -> bool:
    """Two key values tie in a run: NULL equals NULL, NaN nothing."""
    if a is None or b is None:
        return a is None and b is None
    return a == b


def _reference_heads(rows):
    return [i for i in range(len(rows))
            if i == 0 or not all(_equal(a, b)
                                 for a, b in zip(rows[i - 1], rows[i]))]


@given(join_cases())
@example(([SQLType.INTEGER], [], [], (False,), False))   # both empty
@example(([SQLType.INTEGER], [], [(1,), (1,), (2,)], (False,), True))
@example(([SQLType.INTEGER], [(1,)], [], (True,), True))
@example(([SQLType.REAL], [(math.nan,), (1.5,)],
          [(math.nan,)] * 3 + [(1.5,)] * 3, (True,), True))
@example(([SQLType.VARCHAR], [(None,), ("a",), (None,)],
          [(None,)] * 4 + [("a",)] * 2, (True,), False))
@example(([SQLType.INTEGER, SQLType.VARCHAR], [(1, "a"), (1, "a")],
          [(1, "a")] * 3 + [(1, None)] * 3, (False, True), True))
@settings(max_examples=300, deadline=None)
def test_runs_join_like_the_row_by_row_probe(case):
    types, build_rows, probe_rows, null_safe, outer = case
    build = _columns(types, build_rows)
    probe_columns = _columns(types, probe_rows)
    prepared = prepare_side(build, null_safe=null_safe)
    expected_probe, expected_build = probe(prepared, probe_columns, outer)
    probe_idx, build_idx, probed = match(prepared, probe_columns, outer)
    _same(probe_idx, expected_probe)
    _same(build_idx, expected_build)

    heads = _reference_heads(probe_rows)
    n = len(probe_rows)
    # The choice of path is the input's: runs at most half the rows.
    expect_runs = n >= 2 and 2 * len(heads) <= n
    assert probed == (len(heads) if expect_runs else n)


@given(join_cases())
@settings(max_examples=200, deadline=None)
def test_run_heads_follow_null_safe_equality(case):
    types, _, probe_rows, _, _ = case
    found = run_heads(_columns(types, probe_rows))
    heads = _reference_heads(probe_rows)
    if len(probe_rows) >= 2 and 2 * len(heads) <= len(probe_rows):
        _same(found, np.asarray(heads, dtype=np.intp))
    else:
        assert found is None


def _one_pass_heads(columns):
    """The heads in one pass over every pair, key by key."""
    n = len(columns[0]) if columns else 0
    if n < 2:
        return None
    tied = None
    for col in columns:
        values, nulls = col.values, col.nulls
        eq = np.asarray(values[1:] == values[:-1], dtype=bool)
        if nulls.any():
            later, earlier = nulls[1:], nulls[:-1]
            eq &= ~(later | earlier)
            eq |= later & earlier
        tied = eq if tied is None else tied & eq
        if 2 * (n - int(np.count_nonzero(tied))) > n:
            return None
    return np.flatnonzero(np.concatenate(([True], ~tied)))


@given(join_cases(), st.sampled_from((1, 2, 3, join._MIN_PAIRS)))
@example(([SQLType.VARCHAR], [], [("a",), ("b",)] * 5, (False,), False), 1)
@example(([SQLType.REAL], [], [(math.nan,)] * 6 + [(None,)] * 6,
          (False,), False), 2)
@settings(max_examples=300, deadline=None)
def test_chunked_run_heads_decide_as_one_pass(case, min_pairs):
    """Chunks that stop at "more than half" give the heads -- or the
    None -- that one pass over every pair gives."""
    types, _, probe_rows, _, _ = case
    columns = _columns(types, probe_rows)
    expected = _one_pass_heads(columns)
    saved, join._MIN_PAIRS = join._MIN_PAIRS, min_pairs
    try:
        found = run_heads(columns)
    finally:
        join._MIN_PAIRS = saved
    if expected is None:
        assert found is None
    else:
        _same(found, expected)


def test_a_key_ordered_probe_side_probes_one_key_per_run():
    # The Vpct join's shape: a fine aggregate in key order against its
    # roll-up, every probe row matching one build row.
    fine = [ColumnData.from_values(SQLType.INTEGER,
                                   [d for d in range(5) for _ in range(40)])]
    coarse = [ColumnData.from_values(SQLType.INTEGER, [4, 3, 2, 1, 0])]
    probe_idx, build_idx, probed = match(prepare_side(coarse), fine,
                                         outer=False)
    assert probed == 5
    _same(probe_idx, np.arange(200, dtype=np.int64))
    _same(build_idx, np.repeat(np.arange(4, -1, -1, dtype=np.int64), 40))
