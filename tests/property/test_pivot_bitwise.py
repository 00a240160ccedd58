"""The pivot kernel against the generic CASE evaluator, bit for bit.

The oracle needs no hook in ``src``: a family of one term stays with
the generic evaluator (``pivot.detect_families``), so every term asked
for alone -- ``SELECT g, sum(CASE WHEN d = 1 THEN a END) FROM t GROUP
BY g`` -- is the generic answer, and the same terms asked for together
are the kernel's wherever it recognises a family.  The two must agree
in value (``struct.pack('d', ...)``, so ``-0.0`` is not ``0.0``), in
column type, in the error they raise, and -- under the default
``case_dispatch="linear"`` -- in what they charge the ledger.
"""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import ReproError

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
#: no row, a numeric literal of the other numeric type, and a
#: literal of a type the column cannot be compared with.
LITERALS = {
    "d1": st.sampled_from(["0", "1", "1", "2", "9", "1.0", "'x'",
                           "TRUE"]),
    "d2": st.sampled_from(["''", "'x'", "'x'", "'y'", "'q'", "1"]),
    "d3": st.sampled_from(["0", "0.0", "1.5", "1.5", "2", "7.5", "'x'"]),
}


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
                f"{column} = {draw(LITERALS[column])}"
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


@given(ROWS, STATEMENTS)
# A NULL pivot value decodes to a filler that must not meet a literal.
@example([(1, None, "x", None, 1.5, None)],
         (["sum(CASE WHEN d1 = 0 AND d2 = 'x' THEN a END)",
           "sum(CASE WHEN d1 = 1 AND d2 = 'x' THEN a END)"], "", ""))
# The empty input's one group has no row to add ELSE 0's zero.
@example([], (["sum(CASE WHEN d1 = 0 THEN a END)",
               "sum(CASE WHEN d1 = 0 THEN a ELSE 0 END)"], "", ""))
@settings(max_examples=300, deadline=None)
def test_n_single_term_statements_equal_one_n_term_statement(rows,
                                                             statement):
    term_sqls, group_by, where = statement
    db = Database()
    db.load_table("t", SCHEMA, rows)

    alone, charged_alone = [], 0
    for sql in term_sqls:
        before = db.stats.case_evaluations
        alone.append(run(db, sql, where, group_by))
        charged_alone += db.stats.case_evaluations - before
    before = db.stats.case_evaluations
    together = run(db, ", ".join(term_sqls), where, group_by)
    charged_together = db.stats.case_evaluations - before

    errors = [outcome for outcome in alone if isinstance(outcome, type)]
    if errors:
        # The statement raises what its first failing term raises.
        assert together is errors[0]
        return
    types, rows_together = together
    assert types == [outcome[0][0] for outcome in alone]
    for position, (_, rows_alone) in enumerate(alone):
        assert [row[position] for row in rows_together] == \
            [row[0] for row in rows_alone], term_sqls[position]
    # The default charge is the period DBMS's: one WHEN test per term
    # per row, whichever evaluator ran.
    assert charged_together == charged_alone
