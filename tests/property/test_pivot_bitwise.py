"""The pivot kernel against the generic CASE evaluator, and a wide
select list against its items asked for one by one, bit for bit.

The oracle needs no hook in ``src``: a family of one term stays with
the generic evaluator (``pivot.detect_families``), so every term asked
for alone -- ``SELECT g, sum(CASE WHEN d = 1 THEN a END) FROM t GROUP
BY g`` -- is the generic answer, and the same terms asked for together
are the kernel's wherever it recognises a family.  The two must agree
in value (``struct.pack('d', ...)``, so ``-0.0`` is not ``0.0``), in
column type, in the error they raise, and in what they charge the
ledger.

The same holds one level up.  The outer cells the horizontal code
generator writes, parsed back, are select items evaluated one by one
(``Executor._project``) over aggregates the kernel computed together;
asked for one per statement and all together, they must agree the
same four ways.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import ReproError

IS_NULL = "IS NULL"

SCHEMA = [("g", "int"), ("d1", "int"), ("d2", "varchar"),
          ("d3", "real"), ("a", "real"), ("m", "int")]


def nullable(values):
    return st.one_of(st.none(), st.sampled_from(values))


ROWS = st.lists(
    st.tuples(nullable([1, 2, 3]),                 # g
              nullable([0, 1, 2]),                 # d1
              nullable(["", "x", "y"]),            # d2
              nullable([0.0, -0.0, 1.5, 2.0]),     # d3
              # Sums of these depend on the order they are added in.
              nullable([0.0, -0.0, 0.1, 0.2, 0.3, 1e16, -1e16, 1.5,
                        -2.25]),                   # a
              nullable([-3, 0, 4, 7])),            # m
    max_size=30)

#: Literal SQL per pivot column: values that occur, one that matches
#: no row, a numeric literal of the other numeric type, a literal of a
#: type the column cannot be compared with, and ``IS NULL`` in place
#: of ``= literal``.
LITERALS = {
    "d1": st.sampled_from(["0", "1", "1", "2", "9", "1.0", "'x'",
                           "TRUE", IS_NULL]),
    "d2": st.sampled_from(["''", "'x'", "'x'", "'y'", "'q'", "1",
                           IS_NULL]),
    "d3": st.sampled_from(["0", "0.0", "1.5", "1.5", "2", "7.5", "'x'",
                           IS_NULL]),
}


def conjunct(column, literal):
    return f"{column} IS NULL" if literal is IS_NULL \
        else f"{column} = {literal}"


PIVOTS = st.sampled_from([("d1",), ("d2",), ("d3",), ("d1", "d2"),
                          ("d2", "d1"), ("d1", "d2", "d3")])
MEASURES = st.sampled_from(["a", "a", "m", "m", "a + m", "1", "NULL"])
FUNCS = st.sampled_from(["sum", "sum", "sum", "count", "min", "max",
                         "avg"])
ELSES = st.sampled_from(["", " ELSE NULL", " ELSE 0", " ELSE 0",
                         " ELSE 0.0"])


@st.composite
def select_lists(draw):
    """One or two families' worth of ``agg(CASE WHEN <conjunction>
    THEN <measure> [ELSE ..] END)`` terms: each family fixes the pivot
    columns and the measure, its terms vary in function, ELSE and
    literals -- so a statement has two families on the same pivot
    columns, a literal repeated in two terms, and terms no row
    matches, all the time."""
    sqls = []
    for _ in range(draw(st.integers(1, 2))):
        pivots, measure = draw(PIVOTS), draw(MEASURES)
        for _ in range(draw(st.integers(1, 4))):
            condition = " AND ".join(
                conjunct(column, draw(LITERALS[column]))
                for column in pivots)
            sqls.append(f"{draw(FUNCS)}(CASE WHEN {condition} "
                        f"THEN {measure}{draw(ELSES)} END)")
    # The executor binds a repeated aggregate once.
    return list(dict.fromkeys(sqls))


STATEMENTS = st.tuples(
    select_lists(),
    st.sampled_from(["", " GROUP BY g", " GROUP BY g, d2"]),
    st.sampled_from(["", " WHERE m > 0"]))


def bits(value):
    if isinstance(value, float):
        return ("real", struct.pack("d", value))
    return (type(value).__name__, value)


def run(db, select_list, where, group_by):
    """``(column types, rows as bit patterns)``, or the error class."""
    keys = group_by.replace(" GROUP BY ", "")
    items = ", ".join(filter(None, [keys, select_list]))
    try:
        result = db.execute(f"SELECT {items} FROM t{where}{group_by}")
    except ReproError as error:
        return type(error)
    n_keys = len(keys.split(", ")) if keys else 0
    types = [c.sql_type for c in result.schema.columns[n_keys:]]
    rows = [tuple(bits(v) for v in row[n_keys:])
            for row in result.to_rows()]
    return types, rows


def assert_alone_equals_together(rows, item_sqls, where, group_by):
    """Each item asked for alone, then all of them in one statement:
    the same values bit for bit, the same column types, the first
    failing item's error, and the same ledger charge."""
    db = Database()
    db.load_table("t", SCHEMA, rows)

    alone, charged_alone = [], 0
    for sql in item_sqls:
        before = db.stats.case_evaluations
        alone.append(run(db, sql, where, group_by))
        charged_alone += db.stats.case_evaluations - before
    before = db.stats.case_evaluations
    together = run(db, ", ".join(item_sqls), where, group_by)
    charged_together = db.stats.case_evaluations - before

    errors = [outcome for outcome in alone if isinstance(outcome, type)]
    if errors:
        # The statement raises what its first failing item raises.
        assert together is errors[0]
        return
    types, rows_together = together
    assert types == [outcome[0][0] for outcome in alone]
    for position, (_, rows_alone) in enumerate(alone):
        assert [row[position] for row in rows_together] == \
            [row[0] for row in rows_alone], item_sqls[position]
    # The default charge is the period DBMS's: one WHEN test per term
    # per row, whichever evaluator ran.
    assert charged_together == charged_alone


@given(ROWS, STATEMENTS)
# A NULL pivot value decodes to a filler that must not meet a literal.
@example([(1, None, "x", None, 1.5, None)],
         (["sum(CASE WHEN d1 = 0 AND d2 = 'x' THEN a END)",
           "sum(CASE WHEN d1 = 1 AND d2 = 'x' THEN a END)"], "", ""))
# A NULL pivot value is the cell ``IS NULL`` asks for, next to ``=``.
@example([(1, None, "x", None, 1.5, None), (1, 0, None, 2.0, 0.1, 4),
          (2, None, None, 1.5, 0.2, 7)],
         (["sum(CASE WHEN d1 IS NULL AND d2 = 'x' THEN a END)",
           "sum(CASE WHEN d1 IS NULL AND d2 IS NULL THEN a END)",
           "count(CASE WHEN d1 = 0 AND d2 IS NULL THEN m END)"],
          " GROUP BY g", ""))
# The empty input's one group has no row to add ELSE 0's zero.
@example([], (["sum(CASE WHEN d1 = 0 THEN a END)",
               "sum(CASE WHEN d1 = 0 THEN a ELSE 0 END)"], "", ""))
@settings(max_examples=300, deadline=None)
def test_n_single_term_statements_equal_one_n_term_statement(rows,
                                                             statement):
    term_sqls, group_by, where = statement
    assert_alone_equals_together(rows, term_sqls, where, group_by)


# ----------------------------------------------------------------------
# The outer cells: one evaluation per repeated item shape
# ----------------------------------------------------------------------
#: The select items the horizontal code generator writes around the
#: pivot terms (repro.core.horizontal).  ``{c}`` is a cell's match
#: condition, ``{m}`` its measure, ``{f}`` its function, ``{d}`` its
#: DEFAULT; the cells of one statement differ only in ``{c}``, so after
#: the group rewrite they share a tree and differ in its leaf columns.
CELLS = {
    # Hpct, direct (F) strategy: the group's sum is the denominator.
    "hpct-f": "CASE WHEN sum({m}) <> 0 THEN (CASE WHEN sum(CASE WHEN {c} "
              "THEN 1 ELSE 0 END) > 0 THEN sum(CASE WHEN {c} THEN {m} "
              "ELSE NULL END) / sum({m}) ELSE 0 END) ELSE NULL END",
    # Hpct, indirect (FV) strategy: the measure plays FV's pct column.
    "hpct-fv": "CASE WHEN count({m}) > 0 THEN (CASE WHEN sum(CASE WHEN "
               "{c} THEN 1 ELSE 0 END) > 0 THEN sum(CASE WHEN {c} THEN "
               "{m} ELSE NULL END) ELSE 0 END) ELSE NULL END",
    # Hagg: a count is NULL, not 0, where no row matches.
    "hagg-count": "CASE WHEN sum(CASE WHEN {c} THEN 1 ELSE 0 END) > 0 "
                  "THEN {f}(CASE WHEN {c} THEN {m} ELSE NULL END) "
                  "ELSE NULL END",
    # Hagg with DEFAULT.
    "hagg-default": "coalesce({f}(CASE WHEN {c} THEN {m} ELSE NULL END), "
                    "{d})",
}
DEFAULTS = st.sampled_from(["0", "0.0", "-1", "NULL", "'x'"])


@st.composite
def cell_lists(draw):
    """One to three runs of cells: each run fixes the cell, measure,
    pivot columns, function and default and varies the match literals,
    so a statement has runs of several items of one tree, items of one
    tree over leaves of different types, and cells no row matches.  No condition
    is drawn twice: two cells on one condition share its guard
    aggregate, which a statement binds once and charges once, where
    the cells alone charge it once each."""
    sqls, conditions = [], set()
    for _ in range(draw(st.integers(1, 3))):
        cell = CELLS[draw(st.sampled_from(sorted(CELLS)))]
        pivots, measure = draw(PIVOTS), draw(MEASURES)
        func, default = draw(FUNCS), draw(DEFAULTS)
        for _ in range(draw(st.integers(1, 4))):
            condition = " AND ".join(
                conjunct(column, draw(LITERALS[column]))
                for column in pivots)
            if condition not in conditions:
                conditions.add(condition)
                sqls.append(cell.format(c=condition, m=measure, f=func,
                                        d=default))
    return sqls


FV_CELL = CELLS["hpct-fv"]
F_CELL = CELLS["hpct-f"]


@given(ROWS, st.tuples(
    cell_lists(),
    # GROUP BY NULL turns each NULL literal of a cell into the key
    # column, an untyped all-NULL leaf.
    st.sampled_from(["", " GROUP BY g", " GROUP BY g, d2",
                     " GROUP BY g, NULL"]),
    st.sampled_from(["", " WHERE m > 0"])))
# One tree over INTEGER leaves (sums of m) and over REAL ones (sums of
# a): each pair keeps its own column type.
@example([(1, 0, "x", 0.0, 1.5, 2), (1, 1, "y", 1.5, 0.1, 3),
          (2, 0, "x", 2.0, 0.2, None)],
         ([FV_CELL.format(c=f"d1 = {v}", m=m)
           for m, v in (("m", 0), ("m", 1), ("a", 2), ("a", "1.0"))],
          " GROUP BY g", ""))
# An untyped all-NULL leaf: DEFAULT NULL under GROUP BY ..., NULL.
@example([(1, 0, "x", 0.0, 1.5, 2), (2, 1, "y", 1.5, None, None)],
         ([CELLS["hagg-default"].format(c=f"d1 = {v}", m="a", f="sum",
                                        d="NULL") for v in (0, 1)],
          " GROUP BY g, NULL", ""))
# A zero denominator: group 1's a sums to 0, so its lanes are NULL and
# the division's lanes divide by zero.
@example([(1, 0, "x", 0.0, 0.0, 1), (1, 1, "y", 1.5, -0.0, 2),
          (2, 0, "x", 2.0, 1e16, 3), (2, 1, "x", 2.0, -1e16, 4)],
         ([F_CELL.format(c=f"d1 = {v}", m="a") for v in (0, 1, 2)],
          " GROUP BY g", ""))
@settings(max_examples=200, deadline=None)
def test_n_single_cell_statements_equal_one_n_cell_statement(rows,
                                                             statement):
    cell_sqls, group_by, where = statement
    assert_alone_equals_together(rows, cell_sqls, where, group_by)
