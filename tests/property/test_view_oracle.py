"""Property-based oracle for incrementally-maintained views: any
random interleaving of INSERT / UPDATE / DELETE against the base table
leaves the delta-maintained view bit-identical to recomputing its
defining query from scratch (the same comparator and pinned-strategy
baselines as the ``--sweep views`` fuzz sweep).

The value domains are adversarial on purpose: dimension pools include
NULL (NULL group keys), the measure pool includes NULL and 0.0 (NULL
and zero denominators for the percentage forms), and the op pool
includes unfiltered DELETE and key-migrating UPDATE (group death and
rebirth)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.execute import run_percentage_query
from repro.core.horizontal import HorizontalStrategy
from repro.core.vertical import VerticalStrategy
from repro.fuzz.comparator import table_diff

VPCT_SQL = "SELECT d, g, Vpct(m BY g) FROM t GROUP BY d, g"
HPCT_SQL = "SELECT d, Hpct(m BY g) FROM t GROUP BY d"
PLAIN_SQL = "SELECT d, sum(m), count(*), avg(m) FROM t GROUP BY d"

#: Small closed domains so collisions (updates/deletes actually
#: matching rows, groups dying and being reborn) are common.  NULLs in
#: the dimension pools make NULL group keys; NULL and 0.0 in the
#: measure pool make NULL and zero denominators.
D_VALUES = ("x", "y", "z", None)
G_VALUES = ("a", "b", None)
M_VALUES = (0.0, 1.0, 2.5, -1.5, None)

ROW = st.tuples(st.sampled_from(D_VALUES), st.sampled_from(G_VALUES),
                st.sampled_from(M_VALUES))
ROWS = st.lists(ROW, min_size=0, max_size=10)

_DOMAINS = {"d": D_VALUES, "g": G_VALUES, "m": M_VALUES}


def _lit(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _pred(column: str, value) -> str:
    if value is None:
        return f"{column} IS NULL"
    return f"{column} = {_lit(value)}"


@st.composite
def dml_op(draw) -> str:
    """One DML statement drawn from the op pool, rendered as SQL."""
    kind = draw(st.sampled_from(
        ("insert", "insert", "update", "delete", "delete-all")))
    if kind == "insert":
        rows = draw(st.lists(ROW, min_size=1, max_size=3))
        values = ", ".join(
            "(" + ", ".join(_lit(v) for v in row) + ")"
            for row in rows)
        return f"INSERT INTO t VALUES {values}"
    where_col = draw(st.sampled_from(("d", "g", "m")))
    where_val = draw(st.sampled_from(_DOMAINS[where_col]))
    if kind == "update":
        # Targets a measure (denominator drift) or a dimension
        # (key migration: the row leaves one group for another,
        # possibly emptying the first and/or birthing the second).
        set_col = draw(st.sampled_from(("d", "g", "m")))
        set_val = draw(st.sampled_from(_DOMAINS[set_col]))
        return (f"UPDATE t SET {set_col} = {_lit(set_val)} "
                f"WHERE {_pred(where_col, where_val)}")
    if kind == "delete":
        return f"DELETE FROM t WHERE {_pred(where_col, where_val)}"
    return "DELETE FROM t"  # kills every group at once


OPS = st.lists(dml_op(), min_size=1, max_size=6)


def _build(initial_rows, view_sql: str) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (d VARCHAR, g VARCHAR, m REAL)")
    if initial_rows:
        values = ", ".join(
            "(" + ", ".join(_lit(v) for v in row) + ")"
            for row in initial_rows)
        db.execute(f"INSERT INTO t VALUES {values}")
    db.execute(f"CREATE MATERIALIZED VIEW v AS {view_sql}")
    return db


def _assert_identical(db: Database, sql: str, recompute) -> None:
    served = db.execute(sql)
    difference = table_diff(recompute(db, sql), served)
    assert difference is None, difference


def _recompute_vpct(db, sql):
    return run_percentage_query(db, sql, strategy=VerticalStrategy(),
                                use_views=False)


def _recompute_hpct(db, sql):
    return run_percentage_query(
        db, sql, strategy=HorizontalStrategy(source="F"),
        use_views=False)


def _recompute_plain(db, sql):
    return db.execute(sql, use_views=False)


def _run_script(initial_rows, ops, sql, recompute) -> None:
    db = _build(initial_rows, sql)
    _assert_identical(db, sql, recompute)
    for dml in ops:
        db.execute(dml)
        _assert_identical(db, sql, recompute)


@given(ROWS, OPS)
@settings(max_examples=50, deadline=None)
def test_vpct_view_matches_recompute(initial_rows, ops):
    _run_script(initial_rows, ops, VPCT_SQL, _recompute_vpct)


@given(ROWS, OPS)
@settings(max_examples=50, deadline=None)
def test_hpct_view_matches_recompute(initial_rows, ops):
    _run_script(initial_rows, ops, HPCT_SQL, _recompute_hpct)


@given(ROWS, OPS)
@settings(max_examples=50, deadline=None)
def test_plain_groupby_view_matches_recompute(initial_rows, ops):
    _run_script(initial_rows, ops, PLAIN_SQL, _recompute_plain)


# ----------------------------------------------------------------------
# Deterministic corners the random scripts cover only probabilistically
# ----------------------------------------------------------------------
def test_group_death_and_rebirth():
    """Deleting every member of a group removes its rows from the
    view; re-inserting the key brings the group back, bit-identically
    either way."""
    db = _build([("x", "a", 1.0), ("x", "b", 3.0), ("y", "a", 2.0)],
                VPCT_SQL)
    db.execute("DELETE FROM t WHERE d = 'x'")
    _assert_identical(db, VPCT_SQL, _recompute_vpct)
    assert db.execute("SELECT * FROM v").n_rows == 1
    db.execute("INSERT INTO t VALUES ('x', 'a', 5.0)")
    _assert_identical(db, VPCT_SQL, _recompute_vpct)
    db.execute("DELETE FROM t")
    _assert_identical(db, VPCT_SQL, _recompute_vpct)
    assert db.execute("SELECT * FROM v").n_rows == 0


def test_null_denominator_groups():
    """A group whose measures are all NULL (NULL denominator) and one
    whose measures sum to zero (zero denominator) both survive delta
    maintenance bit-identically."""
    db = _build([("x", "a", None), ("x", "b", None),
                 ("y", "a", 1.0), ("y", "b", -1.0)], VPCT_SQL)
    _assert_identical(db, VPCT_SQL, _recompute_vpct)
    # Drift an all-NULL group into a live one and back.
    db.execute("UPDATE t SET m = 2.0 WHERE d = 'x'")
    _assert_identical(db, VPCT_SQL, _recompute_vpct)
    db.execute("UPDATE t SET m = NULL WHERE d = 'x'")
    _assert_identical(db, VPCT_SQL, _recompute_vpct)
