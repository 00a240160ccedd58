"""Cell families: one node per Hpct/Hagg term, N select items.

The horizontal code generator writes the result cells of a term as one
:class:`~repro.sql.ast.CellFamily` -- a template, the BY columns and
the discovered value matrix -- where it used to write N trees.  The
family must be those N trees in every respect that can be observed:

- it prints as them (the formatter expands it) and expands to them,
  typed, as the per-cell builder below -- the generator's per-cell
  code before families -- built them, for NULL, quoted, boolean,
  negative, REAL and multi-column BY values;
- the engine returns what it returns for the expanded statements, bit
  for bit, and charges the ledger the same, on every cell kind: Hpct
  from F and from FV, Hagg with DEFAULT, ``count`` with its match
  guard, two terms sharing cells, FH partitions cutting a family;
- analysis is per family: the ``group-by-aggregate`` span compiles as
  many shapes for 8 x 12 cells as for 4 x 6.
"""

import functools
import struct

import pytest

from repro import Database
from repro.core import HorizontalStrategy
from repro.core.execute import (cleanup_plan, execute_plan,
                                generate_plan)
from repro.core import plan as plan_mod
from repro.core.plan import GeneratedPlan, GeneratedStep
from repro.errors import PlanningError, ReproError, TypeMismatchError
from repro.sql import ast, formatter
from repro.sql.ast import expand_families, typed
from repro.sql.parser import parse_statement

SCHEMA = [("g", "int"), ("b", "boolean"), ("s", "varchar"),
          ("n", "int"), ("r", "real"), ("a", "real"), ("m", "int")]

ROWS = [
    (1, True, "o'k", -3, 1.5, 2.0, 1),
    (1, False, "x", 4, -0.25, 1.0, 2),
    (1, None, "x", -3, 1.5, None, 3),
    (2, True, None, None, 2.0, 4.5, None),
    (2, False, "o'k", 4, None, -1.0, 5),
    (2, True, "", 0, 1e23, 3.0, 6),
    (3, None, "x", -3, -0.25, 0.0, 7),
    (3, False, None, 0, 2.0, 0.0, 8),
]


def _db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.load_table("t", SCHEMA, ROWS)
    return db


QUERIES = [
    "SELECT g, Hpct(a BY s) FROM t GROUP BY g",
    "SELECT g, Hpct(a BY b, n) FROM t GROUP BY g",
    "SELECT g, Hpct(m BY r) FROM t GROUP BY g",
    "SELECT Hpct(a BY s, b) FROM t",
    "SELECT g, sum(a BY s DEFAULT 0) FROM t GROUP BY g",
    "SELECT g, count(a BY n, s) FROM t GROUP BY g",
    "SELECT g, max(s BY b DEFAULT 'none') FROM t GROUP BY g",
    "SELECT g, avg(m BY r), min(a BY b) FROM t GROUP BY g",
    "SELECT g, Hpct(a BY s), sum(a BY s), count(a BY s) "
    "FROM t GROUP BY g",
]
STRATEGIES = [HorizontalStrategy(source="F"),
              HorizontalStrategy(source="FV")]
JOBS = [(sql, s) for sql in QUERIES for s in STRATEGIES]
IDS = [f"{sql} | {s.source}" for sql, s in JOBS]


def _families(plan):
    return [item for step in plan.steps
            if isinstance(step.statement, ast.InsertSelect)
            for item in step.statement.select.items
            if isinstance(item, ast.CellFamily)]


# ----------------------------------------------------------------------
# The node
# ----------------------------------------------------------------------
def _reference_match(by, values):
    """The per-cell condition the generator wrote before families."""
    parts = [ast.IsNull(ref) if value is None
             else ast.BinaryOp("=", ref, ast.Literal(value))
             for ref, value in zip(by, values)]
    return functools.reduce(
        lambda left, right: ast.BinaryOp("AND", left, right), parts)


def _case(condition, then, else_=ast.Literal(None)):
    return ast.CaseWhen(((condition, then),), else_)


def _sum(arg):
    return ast.FuncCall("sum", (arg,))


ZERO, ONE = ast.Literal(0), ast.Literal(1)


def _matched(match):
    return ast.BinaryOp(">", _sum(_case(match, ONE, ZERO)), ZERO)


#: The per-cell trees the generator built before families, by kind.
REFERENCE_CELLS = {
    "hpct-f": lambda m, arg: _case(
        ast.BinaryOp("<>", _sum(arg), ZERO),
        _case(_matched(m), ast.BinaryOp("/", _sum(_case(m, arg)),
                                        _sum(arg)), ZERO)),
    "hpct-fv": lambda m, pct: _case(
        ast.BinaryOp(">", ast.FuncCall("count", (pct,)), ZERO),
        _case(_matched(m), _sum(_case(m, pct)), ZERO)),
    "hagg-count": lambda m, arg: _case(
        _matched(m), ast.FuncCall("count", (_case(m, arg),))),
    "hagg-default": lambda m, arg: ast.FuncCall(
        "coalesce", (_sum(_case(m, arg)), ast.Literal(0))),
}


@pytest.mark.parametrize("kind, sql, source, arg", [
    ("hpct-f", "SELECT g, Hpct(a BY b, n, s) FROM t GROUP BY g", "F",
     ast.ColumnRef("a")),
    ("hpct-fv", "SELECT g, Hpct(a BY r, s) FROM t GROUP BY g", "FV",
     ast.ColumnRef("b1_pct")),
    ("hagg-count", "SELECT g, count(a BY n, b) FROM t GROUP BY g", "F",
     ast.ColumnRef("a")),
    ("hagg-default", "SELECT g, sum(a BY s, r DEFAULT 0) FROM t "
     "GROUP BY g", "F", ast.ColumnRef("a")),
])
def test_expansion_is_the_per_cell_trees(kind, sql, source, arg):
    db = _db()
    plan = generate_plan(db, sql, HorizontalStrategy(source=source))
    try:
        family, = _families(plan)
        values = family.values
        # NULL, quoted, boolean, negative and REAL values all occur.
        flat = {v for row in values for v in row}
        assert None in flat
        assert len(values) > 2 and len(values[0]) == 2 \
            or len(values[0]) == 3
        expected = tuple(ast.SelectItem(REFERENCE_CELLS[kind](
            _reference_match(family.by, row), arg)) for row in values)
        assert typed(family.items()) == typed(expected)
        # The text prints the same trees and parses back to them.
        statement = next(step.statement for step in plan.steps
                         if step.purpose == plan_mod.TRANSPOSE)
        expanded = expand_families(statement)
        assert formatter.format_statement(statement) == \
            formatter.format_statement(expanded)
        assert typed(parse_statement(formatter.format_statement(
            statement))) == typed(expanded)
    finally:
        cleanup_plan(db, plan)


def test_values_cover_the_literal_kinds():
    db = _db()
    plan = generate_plan(db, "SELECT g, Hpct(a BY b, s, n, r) FROM t "
                             "GROUP BY g")
    try:
        family, = _families(plan)
        kinds = {type(v) for row in family.values for v in row}
        assert kinds == {bool, str, int, float, type(None)}
        assert any(v == "o'k" for row in family.values for v in row)
        assert any(isinstance(v, int) and not isinstance(v, bool)
                   and v < 0 for row in family.values for v in row)
        text = formatter.format_statement(next(
            step.statement for step in plan.steps
            if step.purpose == plan_mod.TRANSPOSE))
        assert "s = 'o''k'" in text and "b IS NULL" in text \
            and "b = TRUE" in text and "n = -3" in text \
            and "r = 1e+23" in text
    finally:
        cleanup_plan(db, plan)


_A, _D, _E = (ast.ColumnRef(name) for name in ("a", "d", "e"))
_POSITIVE = ast.BinaryOp(">", _A, ZERO)


@pytest.mark.parametrize("template", [
    _sum(_case(ast.MATCH, _A)),
    # The match as an operand: its parentheses depend on the cell.
    _sum(_case(ast.UnaryOp("NOT", ast.MATCH), _A)),
    _sum(_case(ast.BinaryOp("OR", ast.MATCH, _POSITIVE), _A)),
    _sum(_case(ast.BinaryOp("AND", _POSITIVE, ast.MATCH), _A)),
    _sum(_case(ast.BinaryOp("=", ast.MATCH, ast.Literal(True)), _A)),
    _sum(_case(ast.IsNull(ast.MATCH), _A)),
], ids=["when", "not", "or", "and", "compare", "isnull"])
@pytest.mark.parametrize("values", [((1,), (None,)), ((1, "p"), (None, "q"),
                                                      (2, None))],
                         ids=["one", "two"])
def test_printed_family_is_its_printed_cells(template, values):
    by = (_D, _E)[:len(values[0])]
    family = ast.CellFamily(template, by, values)
    select = ast.Select((ast.SelectItem(_D), family),
                        ast.FromClause(ast.TableRef("t")))
    assert formatter.format_statement(select) == \
        formatter.format_statement(expand_families(select))


def test_expand_families_leaves_family_free_trees_alone():
    statement = parse_statement("SELECT g, sum(a) FROM t GROUP BY g")
    assert expand_families(statement) is statement


def test_a_cut_family_is_its_cells_range():
    family = ast.CellFamily(
        _sum(_case(ast.MATCH, ast.ColumnRef("a"))), (ast.ColumnRef("d"),),
        ((1,), (None,), ("x",)))
    assert len(family) == 3
    assert typed(family.cell(1)) == typed(
        _sum(_case(ast.IsNull(ast.ColumnRef("d")), ast.ColumnRef("a"))))
    assert formatter.format_expr(family.cell(2)) == \
        "sum(CASE WHEN d = 'x' THEN a ELSE NULL END)"


def test_a_match_outside_a_family_or_an_aggregate_is_refused():
    db = _db()
    with pytest.raises(PlanningError):
        db.execute_statement(ast.Select(
            (ast.SelectItem(_sum(_case(ast.MATCH, ast.ColumnRef("a")))),),
            ast.FromClause(ast.TableRef("t"))))
    family = ast.CellFamily(_case(ast.MATCH, ast.ColumnRef("g")),
                            (ast.ColumnRef("s"),), (("x",), ("",)))
    with pytest.raises(PlanningError):
        db.execute_statement(ast.Select(
            (family,), ast.FromClause(ast.TableRef("t")),
            group_by=(ast.ColumnRef("g"),)))


# ----------------------------------------------------------------------
# The engine: the family against its expansion
# ----------------------------------------------------------------------
def _bits(value):
    if isinstance(value, float):
        return ("real", struct.pack("d", value))
    return (type(value).__name__, value)


LEDGER = ("case_evaluations", "rows_scanned", "rows_written",
          "rows_joined", "rows_updated")


def _run(db, plan):
    """The plan's result as bit patterns, its column types and what
    it charged the ledger."""
    before = {name: getattr(db.stats, name) for name in LEDGER}
    report = execute_plan(db, plan)
    table = report.result
    charged = {name: getattr(db.stats, name) - before[name]
               for name in LEDGER}
    return ([tuple(_bits(v) for v in row) for row in table.to_rows()],
            [(c.name, c.sql_type) for c in table.schema.columns],
            charged)


def _expanded(plan: GeneratedPlan) -> GeneratedPlan:
    """The same plan with every family written out as its cells."""
    return GeneratedPlan(
        steps=[GeneratedStep(expand_families(step.statement),
                             step.purpose) for step in plan.steps],
        result_table=plan.result_table,
        result_statement=plan.result_statement,
        temp_tables=list(plan.temp_tables),
        description=plan.description, strategy=plan.strategy)


def _family_against_cells(db, sql, strategy):
    plan = generate_plan(db, sql, strategy)
    assert _families(plan)
    family_run = _run(db, plan)
    cells_run = _run(db, _expanded(plan))
    assert family_run == cells_run
    return plan, family_run


@pytest.mark.parametrize("sql, strategy", JOBS, ids=IDS)
def test_family_runs_as_its_cells(sql, strategy):
    _family_against_cells(_db(), sql, strategy)


NARROW = [("g", "int"), ("d", "varchar"), ("e", "boolean"), ("a", "real")]
NARROW_ROWS = [(i % 3, [None, "p", "q'r", "s", "t"][i % 5],
                [True, False, None][i % 3], float(i % 4) - 1.5)
               for i in range(40)]
CUT_QUERIES = [
    "SELECT g, Hpct(a BY d) FROM n GROUP BY g",
    "SELECT g, Hpct(a BY d, e) FROM n GROUP BY g",
    "SELECT g, sum(a BY d DEFAULT 0) FROM n GROUP BY g",
    "SELECT g, count(a BY e, d) FROM n GROUP BY g",
    "SELECT g, Hpct(a BY d), sum(a BY d) FROM n GROUP BY g",
]
CUT_JOBS = [(sql, s) for sql in CUT_QUERIES for s in STRATEGIES]


def _narrow(**kwargs) -> Database:
    db = Database(**kwargs)
    db.load_table("n", NARROW, NARROW_ROWS)
    return db


@pytest.mark.parametrize("sql, strategy", CUT_JOBS,
                         ids=[f"{sql} | {s.source}"
                              for sql, s in CUT_JOBS])
def test_family_cut_across_partitions_runs_as_its_cells(sql, strategy):
    """Four columns a table: one key and three cells, so every family
    is cut, and two terms' cuts share cells in one partition."""
    db = _narrow(max_columns=4)
    plan, (rows, columns, _) = _family_against_cells(db, sql, strategy)
    transposes = [step.statement for step in plan.steps
                  if step.purpose == plan_mod.TRANSPOSE]
    assert len(transposes) > 1
    assert all(len(item) <= 3 for statement in transposes
               for item in statement.select.items
               if isinstance(item, ast.CellFamily))
    # The partitions hold what one FH would: same rows, same columns.
    whole = _narrow()
    assert (rows, columns) == _run(whole, generate_plan(
        whole, sql, strategy))[:2]


SHARING = "SELECT g, Hpct(a BY d), sum(a BY d), count(a BY d) " \
          "FROM n GROUP BY g"


@pytest.mark.parametrize("sql, max_columns, first", [
    # The total, 5 guards, 5 shared cell sums and 5 counts.
    (SHARING, None, 16),
    # At eight columns a table the first partition holds all five Hpct
    # cells and the first two of the sum's, which share two cells and
    # no more: the total, 5 guards, 5 cell sums.
    (SHARING, 8, 11),
    # At seven, the second partition holds Hpct's last cell and all
    # five of the sum's: one shared, four of the sum's own.
    ("SELECT g, sum(a), count(a), Hpct(a BY d), sum(a BY d) FROM n "
     "GROUP BY g", 7, None),
    # The same, for cells the generic evaluator computes.
    ("SELECT g, sum(a), count(a), stdev(a BY d), stdev(a BY d) FROM n "
     "GROUP BY g", 7, None),
])
def test_two_families_share_their_common_cells(sql, max_columns, first):
    """An Hpct and a sum over the same BY columns ask for the same
    ``sum(CASE WHEN match THEN a END)`` per cell, an Hpct and a count
    for the same match guard: one aggregate each, charged once -- as
    the expanded statement binds it once."""
    kwargs = {} if max_columns is None else {"max_columns": max_columns}
    db = _narrow(tracing=True, **kwargs)
    _family_against_cells(db, sql, HorizontalStrategy(source="F"))
    stamps = [span.attrs for root in db.tracer.roots()
              for step in root.find("plan-step")
              if step.attrs["purpose"] == plan_mod.TRANSPOSE
              for span in step.find("group-by-aggregate")]
    half = len(stamps) // 2
    assert [(s["aggregates"], s["families"]) for s in stamps[:half]] \
        == [(s["aggregates"], s["families"]) for s in stamps[half:]]
    if first is not None:
        assert stamps[0]["aggregates"] == first


def test_a_failing_family_raises_and_charges_as_its_first_cell():
    """The cells are one tree over leaves of one type, so the family
    fails where its first cell would: same error, and the ledger
    charged as the items one by one charge it up to the error -- the
    item before the family, then the first cell's CASE."""
    guard = ast.BinaryOp(">", _sum(_case(ast.MATCH, ONE, ZERO)), ZERO)
    family = ast.CellFamily(
        ast.FuncCall("coalesce", (_case(guard, ast.FuncCall(
            "count", (_case(ast.MATCH, _A),))), ast.Literal("x"))),
        (_D,), (("p",), ("q'r",), (None,)))
    select = ast.Select(
        (ast.SelectItem(ast.ColumnRef("g")),
         ast.SelectItem(_case(ast.BinaryOp(">", _sum(_A), ZERO), ONE)),
         family),
        ast.FromClause(ast.TableRef("n")),
        group_by=(ast.ColumnRef("g"),))
    outcomes = []
    for statement in (select, expand_families(select)):
        db = _narrow()
        with pytest.raises(ReproError) as raised:
            db.execute_statement(statement)
        outcomes.append((type(raised.value), str(raised.value),
                         db.stats.case_evaluations))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is TypeMismatchError
    # The aggregates' two CASEs per cell over 40 rows, then over three
    # groups the CASE before the family and the first cell's.
    assert outcomes[0][2] == 2 * 3 * 40 + 3 + 3


# ----------------------------------------------------------------------
# Analysis per family
# ----------------------------------------------------------------------
def _wide_db(n_d1: int, n_d2: int) -> Database:
    db = Database(tracing=True)
    db.load_table("f", [("g", "int"), ("d1", "int"), ("d2", "int"),
                        ("a", "real")],
                  [(i % 3, i % n_d1, (i // n_d1) % n_d2, float(i % 7))
                   for i in range(n_d1 * n_d2 * 2)])
    return db


@pytest.mark.parametrize("source", ["F", "FV"])
def test_shapes_are_per_family_not_per_cell(source):
    stamps = []
    for n_d1, n_d2 in ((4, 6), (8, 12)):
        db = _wide_db(n_d1, n_d2)
        report = execute_plan(db, generate_plan(
            db, "SELECT g, Hpct(a BY d1, d2), sum(a BY d1) "
                "FROM f GROUP BY g", HorizontalStrategy(source=source)))
        transpose, = [span.attrs for step in report.trace.find(
            "plan-step") if step.attrs["purpose"] == plan_mod.TRANSPOSE
            for span in step.find("group-by-aggregate")]
        assert transpose["items"] == 1 + n_d1 * n_d2 + n_d1
        stamps.append(transpose)
    small, wide = stamps
    assert small["shapes"] == wide["shapes"] <= 4
    assert small["families"] == wide["families"]
