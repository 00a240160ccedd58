"""A wide grouped select list against its items asked for one at a time.

The binder walks each select item once, rewrites its tree over the
group frame, deduplicates aggregate calls by their value key (the tree,
typed literals, resolved columns) and computes pivot families in one
kernel pass (``repro.engine.binder``).  None of that may show: every item of a wide
statement must come back bit for bit -- value, NULL and column SQL type
-- as the same item in a single-item ``SELECT``, a failing statement
must raise the first failing item's error, and the ledger must charge
the wide statement what the single statements charge, less what a call
shared by several items is charged only once.

The lists mix what makes the binder's keys matter: ``ELSE 0`` /
``0.0`` / ``NULL`` / ``FALSE`` in one template position (four keys,
not one), ``f.d`` / ``d`` / ``D`` (one column) and ``1 = d`` (another
template), one call repeated across items, literals no row has,
``d = NULL``, a VARCHAR column compared with an INTEGER literal, window
calls over aggregates, HAVING, and ``grouping()`` / ``pct()`` under
CUBE.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import ReproError

ROWS = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from([1, 2, 3])),       # g
              st.one_of(st.none(), st.sampled_from([0, 1, 2])),       # d
              st.one_of(st.none(), st.sampled_from(["x", "y"])),      # s
              st.one_of(st.none(), st.sampled_from(
                  [0.0, -0.0, 0.1, 0.2, 1e16, -1e16, 1.5])),          # a
              st.one_of(st.none(), st.sampled_from([-3, 0, 4]))),     # m
    max_size=25)

SPELLINGS = ("d", "D", "f.d")
LITERALS = ("0", "1", "2", "9", "NULL")       # 9: no row has it
ELSES = ("", " ELSE 0", " ELSE 0.0", " ELSE NULL", " ELSE FALSE")


@st.composite
def pivot_calls(draw):
    """``(sql, identity)`` of one ``agg(CASE WHEN d = v THEN .. END)``:
    the identity is what the binder keys the call by, so the three
    spellings of ``d`` share it and ``v = d`` does not."""
    func = draw(st.sampled_from(["sum", "sum", "count", "min", "max",
                                 "avg"]))
    literal = draw(st.sampled_from(LITERALS))
    flipped = draw(st.booleans())
    column = draw(st.sampled_from(SPELLINGS))
    condition = f"{literal} = {column}" if flipped \
        else f"{column} = {literal}"
    then = draw(st.sampled_from(["a", "m", "1"]))
    else_ = draw(st.sampled_from(ELSES))
    return (f"{func}(CASE WHEN {condition} THEN {then}{else_} END)",
            ("pivot", func, literal, flipped, then, else_))


def cell(literal, outer_else):
    """The cell the Hpct code generator writes from FV, and its calls."""
    matched = f"sum(CASE WHEN d = {literal} THEN 1 ELSE 0 END)"
    share = f"sum(CASE WHEN d = {literal} THEN a ELSE NULL END)"
    sql = (f"CASE WHEN count(a) > 0 THEN CASE WHEN {matched} > 0 "
           f"THEN {share} ELSE {outer_else} END ELSE NULL END")
    return sql, [("count(a)", ("count(a)",)),
                 (matched, ("pivot", "sum", literal, False, "1",
                            " ELSE 0")),
                 (share, ("pivot", "sum", literal, False, "a",
                          " ELSE NULL"))]


@st.composite
def items(draw):
    """``(sql, [(call sql, call identity), ...])`` of one select item."""
    kind = draw(st.sampled_from(["call", "call", "cell", "cell", "sum",
                                 "varchar", "window"]))
    if kind == "cell":
        return cell(draw(st.sampled_from(LITERALS)),
                    draw(st.sampled_from(["0", "0.0", "NULL"])))
    if kind == "varchar":
        literal = draw(st.sampled_from(["'x'", "'q'", "1"]))
        sql = f"sum(CASE WHEN s = {literal} THEN a END)"
        return sql, [(sql, ("varchar", literal))]
    if kind == "window":
        sql = draw(st.sampled_from([
            "sum(sum(a)) OVER ()", "max(count(a)) OVER (PARTITION BY g)"]))
        return sql, []
    call = draw(pivot_calls())
    if kind == "sum":
        # ``+ 1`` and ``+ 1.0`` are one shape with two literal types.
        literal = draw(st.sampled_from(["1", "1.0", "0", "0.0", "0.5"]))
        return f"{call[0]} + {literal}", [call]
    return call[0], [call]


STATEMENTS = st.tuples(
    st.lists(items(), min_size=2, max_size=8),
    st.sampled_from(["", " HAVING count(a) > 0", " HAVING sum(a) > 1"]))


def bits(value):
    if isinstance(value, float):
        return ("real", struct.pack("d", value))
    return (type(value).__name__, value)


def run(db, sql, n_keys):
    """``(column types, rows as bits, case evaluations)`` past the
    first ``n_keys`` columns, or ``(error class, message)``."""
    try:
        result = db.execute(sql)
    except ReproError as error:
        return type(error), str(error)
    types = [c.sql_type for c in result.schema.columns[n_keys:]]
    rows = [tuple(bits(v) for v in row[n_keys:])
            for row in result.to_rows()]
    return types, rows, db.executor.scopes.last.counters.case_evaluations


def load(rows):
    db = Database()
    db.execute("CREATE TABLE f (g INTEGER, d INTEGER, s VARCHAR, "
               "a REAL, m INTEGER)")
    if rows:
        db.execute("INSERT INTO f VALUES " + ", ".join(
            "(" + ", ".join("NULL" if v is None else repr(v)
                            for v in row) + ")" for row in rows))
    return db


def assert_wide_equals_singles(db, item_list, prefix, suffix):
    n_keys = prefix.count(",")
    singles = [run(db, f"{prefix}{sql}{suffix}", n_keys)
               for sql, _ in item_list]
    wide = run(db, prefix + ", ".join(sql for sql, _ in item_list)
               + suffix, n_keys)
    failed = [single for single in singles if len(single) == 2]
    if failed:
        assert wide == failed[0]
        return
    types, rows, charged = wide
    assert types == [single[0][0] for single in singles]
    assert rows == [tuple(row[0] for row in cells)
                    for cells in zip(*(single[1] for single in singles))]
    # A call is charged once per statement: a call that several items
    # share costs the wide statement one charge, not one per item.
    charge, items_with = {}, {}
    for _, calls in item_list:
        for call_sql, identity in dict(
                (identity, (call_sql, identity))
                for call_sql, identity in calls).values():
            charge[identity] = call_sql
            items_with[identity] = items_with.get(identity, 0) + 1
    shared = sum((items_with[identity] - 1)
                 * run(db, f"{prefix}{call_sql}{suffix}", n_keys)[2]
                 for identity, call_sql in charge.items())
    assert charged == sum(single[2] for single in singles) - shared


@settings(max_examples=60, deadline=None)
@given(ROWS, STATEMENTS)
@example(rows=[(1, 1, "x", 1.5, 4), (1, 2, "y", -0.0, 0),
               (2, 1, None, 0.1, None)],
         statement=([cell("1", "0"), cell("2", "0.0"), cell("9", "NULL"),
                     ("sum(CASE WHEN D = 1 THEN 1 ELSE 0 END)",
                      [("sum(CASE WHEN D = 1 THEN 1 ELSE 0 END)",
                        ("pivot", "sum", "1", False, "1", " ELSE 0"))])],
                    " HAVING count(a) > 0"))
@example(rows=[(1, 1, "x", 1.5, 4), (2, 0, "y", 2.0, 0)],
         statement=([(f"sum(CASE WHEN d = 1 THEN m{e} END)",
                      [(f"sum(CASE WHEN d = 1 THEN m{e} END)",
                        ("pivot", "sum", "1", False, "m", e))])
                     for e in (" ELSE 0", " ELSE 0.0", " ELSE NULL")],
                    ""))
@example(rows=[(1, 1, "x", 1.5, 4), (2, 2, "y", 0.1, 0)],
         statement=([(f"count(CASE WHEN d = 1 THEN a END) + {k}",
                      [("count(CASE WHEN d = 1 THEN a END)",
                        ("pivot", "count", "1", False, "a", ""))])
                     for k in ("1", "1.0", "0", "0.0")], ""))
@example(rows=[(1, 1, "x", 1.5, 4)],
         statement=([("sum(CASE WHEN d = NULL THEN a END)",
                      [("sum(CASE WHEN d = NULL THEN a END)",
                        ("pivot", "sum", "NULL", False, "a", ""))]),
                     ("sum(CASE WHEN s = 1 THEN a END)",
                      [("sum(CASE WHEN s = 1 THEN a END)",
                        ("varchar", "1"))]),
                     ("sum(CASE WHEN d = 1 THEN a ELSE FALSE END)",
                      [("sum(CASE WHEN d = 1 THEN a ELSE FALSE END)",
                        ("pivot", "sum", "1", False, "a",
                         " ELSE FALSE"))])],
                    ""))
def test_wide_select_list_equals_its_items_alone(rows, statement):
    item_list, having = statement
    assert_wide_equals_singles(load(rows), item_list, "SELECT g, ",
                               f" FROM f GROUP BY g{having}")


CUBE_ITEMS = st.sampled_from([
    ("grouping(g)", []), ("grouping(d)", []), ("grouping(g, d)", []),
    ("pct(a)", []), ("pct(m)", []), ("sum(a)", [("sum(a)", ("sum(a)",))]),
    ("count(*)", [("count(*)", ("count(*)",))]),
    ("sum(CASE WHEN d = 1 THEN a ELSE 0 END)",
     [("sum(CASE WHEN d = 1 THEN a ELSE 0 END)",
       ("pivot", "sum", "1", False, "a", " ELSE 0"))]),
    ("grouping(g) + sum(a)", [("sum(a)", ("sum(a)",))]),
])


@settings(max_examples=30, deadline=None)
@given(ROWS, st.lists(CUBE_ITEMS, min_size=2, max_size=6))
def test_cube_select_list_equals_its_items_alone(rows, item_list):
    assert_wide_equals_singles(load(rows), item_list, "SELECT g, d, ",
                               " FROM f GROUP BY CUBE(g, d)")
