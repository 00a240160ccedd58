"""EXPLAIN renders the plan the executor runs.

Both halves of ``EXPLAIN ANALYZE`` come from one
:class:`~repro.engine.planner.SelectPlan`, so every static join line
must agree with the join span the execution left behind: ``[index
...]`` iff the span says ``indexed=True``, ``cartesian join`` iff the
span says ``cartesian=True``.  At the parent commit EXPLAIN re-planned
with private copies of the executor's rules and both the default Vpct
divide step and a join against a derived table disagreed.
"""

import itertools
import re

import pytest

from repro import Database
from repro.core.execute import (_GENERATION_TIME, cleanup_plan,
                                generate_plan)
from repro.core.vertical import VerticalStrategy
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.variants import Variant, open_variant

_STATIC_JOIN = re.compile(
    r"^\s*(hash join|left outer join|cartesian join) ")
#: Operators of the statement itself sit one level under its span;
#: the operators a derived table ran sit deeper, under its scan.
_ACTUAL_JOIN = re.compile(r"^  join ")

#: The first 25 seed-0 percentage cases a plan exists for (a
#: horizontal query without GROUP BY is refused at generation).
_GENERATOR = CaseGenerator(0, families=("vpct", "hpct", "hagg"))
CASES = list(itertools.islice(
    (case for case in map(_GENERATOR.case, itertools.count())
     if "GROUP BY" in case.query_sql()), 25))


def _joins(db, sql):
    """``(static join lines in execution order, top-level join span
    lines)`` of one EXPLAIN ANALYZE; the statement really runs."""
    lines = [line for (line,) in
             db.execute(f"EXPLAIN ANALYZE {sql}").to_rows()]
    split = lines.index("-- actual --")
    static = [l.strip() for l in lines[:split] if _STATIC_JOIN.match(l)]
    actual = [l for l in lines[split:] if _ACTUAL_JOIN.match(l)]
    return static[::-1], actual


def _assert_agree(db, sql):
    static, actual = _joins(db, sql)
    assert len(static) == len(actual), (sql, static, actual)
    for planned, ran in zip(static, actual):
        assert ("[index " in planned) == ("indexed=True" in ran), \
            (sql, planned, ran)
        assert planned.startswith("cartesian join") \
            == ("cartesian=True" in ran), (sql, planned, ran)
    return static


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{c.family}-{c.index}" for c in CASES])
def test_generated_plan_statements_agree(case):
    strategies = [None]
    if case.family == "vpct":
        # The UPDATE ... FROM divide step plans its join the same way.
        strategies.append(VerticalStrategy(use_update=True))
    joins = 0
    with open_variant(case, Variant()) as db:
        for strategy in strategies:
            plan = generate_plan(db, case.query_sql(), strategy)
            try:
                for step in plan.steps:
                    if step.purpose not in _GENERATION_TIME:
                        joins += len(_assert_agree(db, step.sql))
                joins += len(_assert_agree(db, plan.result_select))
            finally:
                cleanup_plan(db, plan)
    if case.family == "vpct":
        assert joins, "every Vpct plan divides through a join"


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE f (k VARCHAR, a INT)")
    database.execute(
        "INSERT INTO f VALUES ('x', 1), ('y', 2), (NULL, 3)")
    return database


def test_join_against_a_derived_table_is_a_hash_join(db):
    """The derived table's columns are inferred statically, so the
    unqualified ``kk`` resolves and EXPLAIN sees the key the executor
    joins on."""
    static = _assert_agree(
        db, "SELECT f.k, t.total FROM f, (SELECT k AS kk, sum(a) AS "
            "total FROM f GROUP BY k) t WHERE f.k = kk")
    assert static == ["hash join t on f.k = kk"]


def test_null_safe_join_never_claims_an_index(db):
    """Percentage plans join on ``a = b OR (a IS NULL AND b IS NULL)``
    (NULL groups must join); index digests drop NULL keys, so neither
    the plan nor the run may use one."""
    db.execute("CREATE TABLE g (k VARCHAR, total INT)")
    db.execute("INSERT INTO g VALUES ('x', 1), (NULL, 3)")
    db.execute("CREATE INDEX g_ix ON g (k)")
    static = _assert_agree(
        db, "SELECT f.a, g.total FROM f, g "
            "WHERE (f.k = g.k OR (f.k IS NULL AND g.k IS NULL))")
    assert static == ["hash join g on f.k = g.k"]
    assert db.stats.index_lookups == 0


def test_planned_index_is_probed_whichever_side_is_smaller(db):
    """An index on the joined table is the build side the plan
    promised: the executor does not swap it away because the probe
    side happens to be smaller."""
    db.execute("CREATE TABLE wide (k VARCHAR, v INT)")
    db.execute("INSERT INTO wide VALUES ('x', 1), ('x', 2), ('y', 3), "
               "('z', 4), ('z', 5)")
    db.execute("CREATE INDEX wide_ix ON wide (k)")
    static = _assert_agree(
        db, "SELECT f.a, wide.v FROM f, wide WHERE f.k = wide.k")
    assert static == ["hash join wide on f.k = wide.k [index wide_ix]"]
    assert db.stats.index_lookups == 3
    rows = db.query("SELECT f.a, wide.v FROM f, wide "
                    "WHERE f.k = wide.k ORDER BY 1, 2")
    assert rows == [(1, 1), (1, 2), (2, 3)]


def test_join_update_explains_its_join(db):
    db.execute("CREATE TABLE g (k VARCHAR, total INT)")
    db.execute("INSERT INTO g VALUES ('x', 10), ('y', 20)")
    db.execute("CREATE INDEX g_ix ON g (k)")
    static = _assert_agree(
        db, "UPDATE f SET a = a * g.total FROM g WHERE f.k = g.k")
    assert static == ["left outer join g on f.k = g.k [index g_ix]"]
    assert db.query("SELECT a FROM f ORDER BY a") == [(3,), (10,), (40,)]


def test_explain_and_run_select_share_the_plan_type(db):
    from repro.engine.planner import SelectPlan
    from repro.sql.parser import parse_statement

    select = parse_statement("SELECT k, sum(a) FROM f GROUP BY k")
    plan = db.executor.plan_select(select)
    assert isinstance(plan, SelectPlan)
    assert plan.mode == "aggregate" and plan.columns == ("k", "col2")
    assert db.executor._run_plan(plan, "r").to_rows() \
        == db.executor.run_select(select).to_rows()
