"""Property-based tests for the shared-scan grouping-sets operator.

The central claim (docs/cube.md): one ``GROUP BY GROUPING SETS``
evaluation is **bit-identical** -- values, SQL types, and row order --
to running one plain ``GROUP BY`` per set and concatenating the
results in request order.  Hypothesis drives random schemas, NULL
densities, and set lattices through that equivalence, plus the
GROUPING() bitmask invariants, a ROLLUP chain of exact aggregates, and
the degenerate corners (empty tables, all-NULL key columns).
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core import run_percentage_query
from repro.fuzz.comparator import rows_equal

DIMS = ("d1", "d2", "d3")

#: dim values: small pools plus NULL so groups collide and NULL groups
#: appear often.
D1 = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
D2 = st.one_of(st.none(), st.sampled_from(("x", "y")))
D3 = st.one_of(st.none(), st.integers(min_value=0, max_value=1))
M1 = st.one_of(st.none(), st.integers(min_value=-50, max_value=50))
M2 = st.one_of(st.none(),
               st.floats(min_value=-8, max_value=8, width=32,
                         allow_nan=False))

ROWS = st.lists(st.tuples(D1, D2, D3, M1, M2), min_size=0, max_size=30)

#: random lattices: 1-5 distinct subsets of the dims (the parser
#: rejects duplicate sets, so draw them unique).
GROUPING_SETS = st.lists(
    st.sets(st.sampled_from(DIMS)).map(
        lambda s: tuple(d for d in DIMS if d in s)),
    min_size=1, max_size=5, unique=True)

#: plain aggregates, then what the pivot kernel computes under a plain
#: GROUP BY and the generic evaluator under a lattice: a run of
#: disjoint CASE aggregates on d2 (and count(DISTINCT ...)).
AGGS = ("count(*)", "count(m1)", "sum(m1)", "min(m1)", "max(m1)",
        "sum(m2)", "avg(m2)", "count(DISTINCT m1)",
        "sum(CASE WHEN d2 = 'x' THEN m1 ELSE 0 END)",
        "sum(CASE WHEN d2 = 'y' THEN m1 ELSE 0 END)",
        "max(CASE WHEN d2 = 'x' THEN m2 END)",
        "max(CASE WHEN d2 = 'y' THEN m2 END)")

#: GROUP BY key lists for the one-set equivalence: NULL-bearing
#: columns, a REAL key (signed zeros), a composite key, a key twice
#: (one union dim) and none (the global aggregate).
ONE_SET_KEYS = st.sampled_from((
    ("d1",), ("d2", "d1"), ("d1", "d2", "d3"), ("m2",), ("d1 + 1",),
    ("d1", "d1"), ()))


def _sql_value(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def load(rows):
    db = Database()
    db.execute("CREATE TABLE t (d1 INT, d2 VARCHAR, d3 INT, "
               "m1 INT, m2 REAL)")
    if rows:
        values = ", ".join(
            "(" + ", ".join(_sql_value(v) for v in row) + ")"
            for row in rows)
        db.execute(f"INSERT INTO t VALUES {values}")
    return db


def bits(value):
    """Bit-level identity key: 8 != 8.0, -0.0 != 0.0, NaN == NaN."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def bit_rows(rows):
    return [tuple(bits(v) for v in row) for row in rows]


def union_dims(sets):
    """First-appearance dim order across the raw sets -- the engine's
    union order and therefore its output column order."""
    seen = []
    for group in sets:
        for dim in group:
            if dim not in seen:
                seen.append(dim)
    return seen


def sets_sql(sets):
    return "GROUPING SETS (" + ", ".join(
        "(" + ", ".join(group) + ")" for group in sets) + ")"


def grouping_mask(args, present):
    mask = 0
    for j, arg in enumerate(args):
        if arg not in present:
            mask |= 1 << (len(args) - 1 - j)
    return mask


def n_query_reference(db, dims, sets, aggs, grouping_args=()):
    """The N-separate-queries answer, shaped like the union output.

    Per set, GROUP BY lists the set's dims in union order (matching
    the shared-scan operator's canonical per-set dim order), absent
    dims become None placeholders, and grouping() becomes its
    constant bitmask.  Pieces concatenate in request order.
    """
    rows = []
    for group in sets:
        present = [d for d in dims if d in group]
        select = present + list(aggs)
        sql = f"SELECT {', '.join(select)} FROM t"
        if present:
            sql += f" GROUP BY {', '.join(present)}"
        for piece in db.query(sql):
            keys = dict(zip(present, piece))
            row = [keys.get(d) for d in dims]
            row += list(piece[len(present):])
            if grouping_args:
                row.append(grouping_mask(grouping_args, present))
            rows.append(tuple(row))
    return rows


@given(ROWS, GROUPING_SETS)
@settings(max_examples=60, deadline=None)
def test_shared_scan_bit_identical_to_n_queries(rows, sets):
    db = load(rows)
    dims = union_dims(sets)
    gargs = tuple(dims) if dims else ()
    items = dims + list(AGGS)
    if gargs:
        items.append(f"grouping({', '.join(gargs)})")
    actual = db.query(
        f"SELECT {', '.join(items)} FROM t GROUP BY {sets_sql(sets)}")
    expected = n_query_reference(db, dims, sets, AGGS, gargs)
    assert bit_rows(actual) == bit_rows(expected)


@given(ROWS, ONE_SET_KEYS)
@settings(max_examples=80, deadline=None)
def test_one_set_lattice_is_its_plain_group_by(rows, keys):
    """A plain GROUP BY is the lattice of one set: ``GROUPING SETS
    ((k...))`` returns what ``GROUP BY k...`` does -- column names,
    SQL types and every value bit for bit, NULL keys, -0.0 keys and
    the empty table included."""
    db = load(rows)
    select = f"SELECT {', '.join([*keys, *AGGS])} FROM t"
    plain = db.execute(select + (f" GROUP BY {', '.join(keys)}"
                                 if keys else ""))
    # A set names each of its dims once.
    lattice = db.execute(f"{select} GROUP BY GROUPING SETS "
                         f"(({', '.join(dict.fromkeys(keys))}))")
    assert lattice.column_names() == plain.column_names()
    assert [lattice.column(c).sql_type for c in lattice.column_names()] \
        == [plain.column(c).sql_type for c in plain.column_names()]
    assert bit_rows(lattice.to_rows()) == bit_rows(plain.to_rows())


KEY_TWICE_ROWS = [(1, "x", 0, 5, 1.0), (1, "y", 1, 7, 2.0),
                  (None, "x", 0, 3, None)]


def ledger(sql):
    """The counters ``sql`` books on a fresh table (cold memos)."""
    db = load(KEY_TWICE_ROWS)
    db.execute(sql)
    return db.executor.scopes.last.counters.counters()


def test_a_key_twice_keeps_both_columns():
    """``GROUP BY a, a`` groups by one union dim, and the select list
    still names both of its columns.  The dim is read (its memo) and
    evaluated (its CASE) once: the statement books what the key
    written once books."""
    db = load(KEY_TWICE_ROWS)
    result = db.execute("SELECT d1, d1, sum(m1) FROM t GROUP BY d1, d1")
    assert result.column_names() == ["d1", "d1_1", "col3"]
    assert result.to_rows() == [(None, None, 3), (1, 1, 12)]
    for key, misses, cases in (("d1", 1, 0),
                               ("CASE WHEN d1 = 1 THEN 'a' END", 0, 3)):
        once = ledger(f"SELECT {key}, sum(m1) FROM t GROUP BY {key}")
        assert (once["encode_cache_misses"],
                once["case_evaluations"]) == (misses, cases)
        assert ledger(f"SELECT {key}, {key}, sum(m1) FROM t "
                      f"GROUP BY {key}, {key}") == once


@given(ROWS)
@settings(max_examples=60, deadline=None)
def test_cube_bit_identical_to_n_queries(rows):
    db = load(rows)
    actual = db.query(
        "SELECT d1, d2, count(*), sum(m1), avg(m2), grouping(d1, d2) "
        "FROM t GROUP BY CUBE(d1, d2)")
    # CUBE expansion order: leftmost varies slowest, r = k..0.
    sets = (("d1", "d2"), ("d1",), ("d2",), ())
    expected = n_query_reference(db, ["d1", "d2"], sets, AGGS[:1] +
                                 ("sum(m1)", "avg(m2)"), ("d1", "d2"))
    assert bit_rows(actual) == bit_rows(expected)


@given(ROWS)
@settings(max_examples=60, deadline=None)
def test_rollup_fold_chain_matches_direct(rows):
    """ROLLUP over every dim with exact aggregates only
    (count/count(*)/INTEGER sum/min/max): every level of the chain is
    bit-identical to a plain GROUP BY of that level over the base
    rows."""
    db = load(rows)
    aggs = ("count(*)", "count(m1)", "sum(m1)", "min(m1)", "max(m1)")
    actual = db.query(
        f"SELECT d1, d2, d3, {', '.join(aggs)} FROM t "
        f"GROUP BY ROLLUP(d1, d2, d3)")
    sets = (("d1", "d2", "d3"), ("d1", "d2"), ("d1",), ())
    expected = n_query_reference(db, ["d1", "d2", "d3"], sets, aggs)
    assert bit_rows(actual) == bit_rows(expected)


@given(ROWS)
@settings(max_examples=40, deadline=None)
def test_grouping_bits_track_placeholder_nulls(rows):
    """With no NULLs in the key data, a dim column is NULL exactly
    when its grouping() bit says the set omitted it."""
    solid = [(d1 or 0, d2 or "x", d3, m1, m2)
             for d1, d2, d3, m1, m2 in rows]
    db = load(solid)
    result = db.query(
        "SELECT d1, d2, count(*), grouping(d1, d2) FROM t "
        "GROUP BY CUBE(d1, d2)")
    for d1, d2, _, mask in result:
        assert 0 <= mask <= 3
        assert bool(mask & 2) == (d1 is None)
        assert bool(mask & 1) == (d2 is None)
    if solid:
        # one grand-total row, and each lattice level is non-empty
        assert [r for r in result if r[3] == 3] == [
            (None, None, len(solid), 3)]
        assert {mask for _, _, _, mask in result} == {0, 1, 2, 3}


@given(ROWS)
@settings(max_examples=40, deadline=None)
def test_all_null_keys_collapse_to_one_group_per_set(rows):
    """Every key NULL: each set has exactly one (all-NULL) group, and
    only grouping() separates the lattice levels."""
    nulled = [(None, None, None, m1, m2)
              for _, _, _, m1, m2 in rows]
    db = load(nulled)
    actual = db.query(
        "SELECT d1, d2, count(*), sum(m1), grouping(d1, d2) FROM t "
        "GROUP BY CUBE(d1, d2)")
    sets = (("d1", "d2"), ("d1",), ("d2",), ())
    expected = n_query_reference(db, ["d1", "d2"], sets,
                                 ("count(*)", "sum(m1)"),
                                 ("d1", "d2"))
    assert bit_rows(actual) == bit_rows(expected)
    if nulled:
        assert len(actual) == 4
        assert all(d1 is None and d2 is None
                   for d1, d2, _, _, _ in actual)


def test_empty_table_keeps_only_the_global_set():
    """Empty input: non-empty sets produce no rows; the empty set
    still produces its single global row with count 0 / NULL sum."""
    db = load([])
    rows = db.query(
        "SELECT d1, count(*), sum(m1), grouping(d1) FROM t "
        "GROUP BY GROUPING SETS ((d1), ())")
    assert rows == [(None, 0, None, 1)]


@given(st.lists(st.tuples(D1, D2, st.integers(min_value=1,
                                              max_value=20)),
                min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_pct_hierarchy_sums_to_one_per_parent(rows):
    """pct(m) divides each group's sum by its parent lattice level's:
    the grand total's pct is 1.0 and each parent's children sum to 1
    (measures are strictly positive, so no NULL/zero denominators)."""
    db = load([(d1, d2, None, m, None) for d1, d2, m in rows])
    result = db.query(
        "SELECT d1, d2, sum(m1), pct(m1), grouping(d1, d2) FROM t "
        "GROUP BY ROLLUP(d1, d2)")
    by_mask = {}
    for row in result:
        by_mask.setdefault(row[4], []).append(row)
    # grand total vs itself
    [(_, _, total, pct, _)] = by_mask[3]
    assert pct == 1.0
    assert total == sum(m for _, _, m in rows)
    # each (d1) level row against the grand total
    assert math.isclose(sum(r[3] for r in by_mask[1]), 1.0)
    for d1, _, subtotal, pct, _ in by_mask[1]:
        assert math.isclose(pct, subtotal / total)
    # (d1, d2) children sum to 1 within each d1 parent
    children = {}
    for d1, d2, subtotal, pct, _ in by_mask[0]:
        children.setdefault(d1, 0.0)
        children[d1] += pct
    for d1, share in children.items():
        assert math.isclose(share, 1.0)
    assert set(children) == {r[0] for r in by_mask[1]}


# ----------------------------------------------------------------------
# Cross-feature oracle: the lattice identity ties pct() to the paper's
# Vpct (Data Cube: a ROLLUP cell *is* the plain GROUP BY on that edge)
# ----------------------------------------------------------------------
def _finest_level_pct(db, table, d1, d2, measure):
    rows = db.execute(
        f"SELECT {d1}, {d2}, pct({measure}), grouping({d1}, {d2}) "
        f"FROM {table} GROUP BY ROLLUP({d1}, {d2})").to_rows()
    return [row[:3] for row in rows if row[3] == 0]


def _vpct(db, table, d1, d2, measure):
    return run_percentage_query(
        db, f"SELECT {d1}, {d2}, Vpct({measure} BY {d2}) FROM {table} "
            f"GROUP BY {d1}, {d2}").to_rows()


@given(ROWS, st.sampled_from(("m1", "m2")))
@settings(max_examples=60, deadline=None)
def test_pct_on_the_rollup_edge_is_the_papers_vpct(rows, measure):
    """For ``GROUP BY ROLLUP(d1, d2)`` the ``grouping() = 0`` rows are
    the plain ``GROUP BY d1, d2`` and their parent level is ``GROUP BY
    d1``, so their ``pct(m)`` must equal ``Vpct(m BY d2) ... GROUP BY
    d1, d2`` as the code generator evaluates it (1e-9, NULL == NULL)
    -- NULL keys, NULL measures and zero denominators included."""
    db = load(rows)
    assert rows_equal(_finest_level_pct(db, "t", "d1", "d2", measure),
                      _vpct(db, "t", "d1", "d2", measure)) is None


def test_pct_on_the_rollup_edge_on_the_papers_table_1(sales_db):
    engine = _finest_level_pct(sales_db, "sales", "state", "city",
                               "salesamt")
    assert rows_equal(engine, _vpct(sales_db, "sales", "state", "city",
                                    "salesamt")) is None
    assert dict((row[:2], row[2]) for row in engine) == pytest.approx({
        ("CA", "Los Angeles"): 0.2169811320754717,
        ("CA", "San Francisco"): 0.7830188679245284,
        ("TX", "Dallas"): 0.5704697986577181,
        ("TX", "Houston"): 0.42953020134228187,
    }, abs=1e-12)
