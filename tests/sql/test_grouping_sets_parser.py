"""Parser + formatter coverage for GROUP BY CUBE / ROLLUP / GROUPING
SETS, and the pinned typed errors that name the offending set."""

import pytest

from repro import Database
from repro.errors import GroupingSetError, SQLSyntaxError
from repro.sql import ast
from repro.sql.formatter import format_statement
from repro.sql.parser import parse_statement

ROUND_TRIPS = [
    "SELECT d1, sum(m) FROM t GROUP BY CUBE (d1, d2)",
    "SELECT d1, sum(m) FROM t GROUP BY ROLLUP (d1, d2, d3)",
    "SELECT d1, sum(m) FROM t GROUP BY GROUPING SETS ((d1, d2), (d1), ())",
    "SELECT d1, sum(m) FROM t GROUP BY d3, CUBE (d1, d2)",
    "SELECT d1, sum(m) FROM t GROUP BY ROLLUP (d1), GROUPING SETS ((d2), ())",
    "SELECT grouping(d1, d2), count(*) FROM t GROUP BY CUBE (d1, d2)",
    "SELECT d1, pct(m) FROM t GROUP BY ROLLUP (d1, d2)",
    "SELECT d1, sum(m) FROM t GROUP BY CUBE (d1, d2) HAVING count(*) > 1",
]


@pytest.mark.parametrize("sql", ROUND_TRIPS)
def test_round_trip(sql):
    statement = parse_statement(sql)
    rendered = format_statement(statement)
    assert rendered == sql
    assert format_statement(parse_statement(rendered)) == sql


def test_cube_parses_to_construct():
    statement = parse_statement(
        "SELECT d1 FROM t GROUP BY d3, CUBE (d1, d2)")
    plain, cube = statement.group_by
    assert isinstance(plain, ast.ColumnRef) and plain.name == "d3"
    assert isinstance(cube, ast.Cube)
    assert [e.name for e in cube.exprs] == ["d1", "d2"]
    assert ast.has_grouping_sets(statement)


def test_grouping_sets_keeps_set_order_and_empty_set():
    statement = parse_statement(
        "SELECT 1 FROM t GROUP BY GROUPING SETS ((d2, d1), (), (d1))")
    (sets,) = statement.group_by
    assert isinstance(sets, ast.GroupingSets)
    assert [tuple(e.name for e in s) for s in sets.sets] == [
        ("d2", "d1"), (), ("d1",)]


def test_plain_group_by_is_not_grouping_sets():
    statement = parse_statement("SELECT d1 FROM t GROUP BY d1, d2")
    assert not ast.has_grouping_sets(statement)


def test_cube_and_rollup_still_work_as_column_names():
    """CUBE/ROLLUP are contextual keywords: only a following ``(``
    makes them constructs, so legacy schemas with such columns keep
    parsing."""
    statement = parse_statement(
        "SELECT cube, rollup FROM t GROUP BY cube, rollup")
    assert [e.name for e in statement.group_by] == ["cube", "rollup"]
    assert not ast.has_grouping_sets(statement)


def test_grouping_still_works_as_column_name():
    statement = parse_statement("SELECT grouping FROM t GROUP BY grouping")
    assert isinstance(statement.group_by[0], ast.ColumnRef)


# -- pinned typed errors -----------------------------------------------
@pytest.mark.parametrize("sql, message, named_set", [
    ("SELECT 1 FROM t GROUP BY CUBE()",
     "CUBE requires at least one expression", "CUBE ()"),
    ("SELECT 1 FROM t GROUP BY ROLLUP()",
     "ROLLUP requires at least one expression", "ROLLUP ()"),
    ("SELECT 1 FROM t GROUP BY GROUPING SETS ()",
     "GROUPING SETS requires at least one grouping set",
     "GROUPING SETS ()"),
    ("SELECT 1 FROM t GROUP BY GROUPING SETS ((d1, d2), (d1), (d1, d2))",
     "duplicate grouping set", "(d1, d2)"),
    ("SELECT 1 FROM t GROUP BY CUBE(d1, d2, d1)",
     "duplicate expression d1 in CUBE", "(d1, d2, d1)"),
    ("SELECT 1 FROM t GROUP BY ROLLUP(d2, d2)",
     "duplicate expression d2 in ROLLUP", "(d2, d2)"),
    # A key twice in one set is that set once, so this names a set
    # twice.
    ("SELECT 1 FROM t GROUP BY GROUPING SETS ((d1, d1), (d1))",
     "duplicate grouping set", "(d1)"),
])
def test_malformed_constructs_name_the_offending_set(sql, message,
                                                     named_set):
    with pytest.raises(GroupingSetError) as excinfo:
        parse_statement(sql)
    assert message in str(excinfo.value)
    assert excinfo.value.grouping_set == named_set


def test_a_key_twice_in_a_grouping_set_groups_once():
    """``GROUPING SETS ((d1, d1))`` is ``(d1)``, as ``GROUP BY d1, d1``
    is ``GROUP BY d1``: the same rows as the plain GROUP BY."""
    (sets,) = parse_statement(
        "SELECT d1 FROM t GROUP BY GROUPING SETS ((d1, d2, d1))"
    ).group_by
    assert [tuple(e.name for e in s) for s in sets.sets] == [("d1", "d2")]
    db = Database()
    db.execute("CREATE TABLE t (d1 VARCHAR, m INT)")
    db.execute("INSERT INTO t VALUES ('a', 1), (NULL, 2), ('a', 3), "
               "('b', NULL)")
    twice = db.query("SELECT d1, sum(m), count(*) FROM t "
                     "GROUP BY GROUPING SETS ((d1, d1))")
    assert twice == db.query("SELECT d1, sum(m), count(*) FROM t "
                             "GROUP BY d1")
    assert sorted(twice, key=repr) == sorted(
        [("a", 4, 2), (None, 2, 1), ("b", None, 1)], key=repr)


def test_grouping_set_error_is_catchable_as_planning_error():
    from repro.errors import PlanningError

    with pytest.raises(PlanningError):
        parse_statement("SELECT 1 FROM t GROUP BY CUBE()")


@pytest.mark.parametrize("sql", [
    "SELECT 1 FROM t GROUP BY CUBE(d1",       # unclosed construct
    "SELECT 1 FROM t GROUP BY GROUPING SETS", # missing list
    "SELECT 1 FROM t GROUP BY GROUPING SETS ((d1)",
])
def test_malformed_syntax_still_raises_syntax_error(sql):
    with pytest.raises(SQLSyntaxError):
        parse_statement(sql)
