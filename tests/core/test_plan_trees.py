"""The text a plan prints is the tree the engine runs.

Plans hand the engine statement trees; ``step.sql`` and
``plan.result_select`` are the formatter's rendering of them, printed
only when read.  For every paper query shape and every strategy the
text must parse back to the very tree -- compared *typed*, because
dataclass equality takes ``Literal(1)``, ``Literal(1.0)``,
``Literal(True)`` and ``Literal(np.int64(1))`` for one another -- and
an untraced query must neither lex its plan nor print it: only its
short generation-time feedback statements travel as text.
"""

import sys

import numpy as np
import pytest

from repro import Database
from repro.bench.workloads import DMKD_QUERIES, SIGMOD_QUERIES
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy)
from repro.core import execute
from repro.core.execute import (cleanup_plan, generate_plan,
                                run_percentage_query)
from repro.datagen import (load_census, load_employee, load_sales,
                           load_transaction_line)
from repro.sql import ast, formatter, tokens
from repro.sql.ast import typed
from repro.sql.parser import parse_statement


def test_typed_comparison_tells_literal_types_apart():
    literals = [ast.Literal(1), ast.Literal(1.0), ast.Literal(True),
                ast.Literal(np.int64(1))]
    assert len(set(literals)) == 1
    assert len({typed(literal) for literal in literals}) == 4


VERTICAL = [VerticalStrategy(), VerticalStrategy(matching_indexes=False),
            VerticalStrategy(use_update=True),
            VerticalStrategy(fj_from_fk=False),
            VerticalStrategy(create_indexes=False),
            VerticalStrategy(single_statement=True)]
CASE = [HorizontalStrategy(source="F"), HorizontalStrategy(source="FV")]
SPJ = [HorizontalAggStrategy(source="F"),
       HorizontalAggStrategy(source="FV")]

JOBS = [(spec.vpct_sql(), s) for spec in SIGMOD_QUERIES + DMKD_QUERIES
        for s in VERTICAL] \
    + [(spec.hpct_sql(), s) for spec in SIGMOD_QUERIES + DMKD_QUERIES
       for s in CASE] \
    + [(spec.hagg_sql(), s) for spec in SIGMOD_QUERIES + DMKD_QUERIES
       for s in CASE + SPJ]


@pytest.fixture(scope="module")
def paper_db():
    db = Database()
    load_sales(db, 1_000)
    load_employee(db, 500)
    load_census(db, 500)
    load_transaction_line(db, 1_000)
    return db


@pytest.mark.parametrize("sql, strategy", JOBS,
                         ids=[f"{sql} | {s.describe()}"
                              for sql, s in JOBS])
def test_printed_text_parses_to_the_tree(paper_db, sql, strategy):
    plan = generate_plan(paper_db, sql, strategy)
    try:
        for step in plan.steps:
            assert typed(parse_statement(step.sql)) == \
                typed(step.statement), step.sql
        assert typed(parse_statement(plan.result_select)) == \
            typed(plan.result_statement)
    finally:
        cleanup_plan(paper_db, plan)


def _spy(monkeypatch, module, name):
    """Count calls of ``module.name`` through every ``repro`` module
    that imported it; returns the list of first arguments."""
    original = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") \
                and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, spy)
    return calls


@pytest.mark.parametrize("sql, strategy", [
    ("SELECT store, Hpct(salesamt BY dweek) FROM sales GROUP BY store",
     HorizontalStrategy(source="F")),
    ("SELECT store, Hpct(salesamt BY dweek) FROM sales GROUP BY store",
     HorizontalStrategy(source="FV")),
    ("SELECT store, sum(salesamt BY dweek) FROM sales GROUP BY store",
     HorizontalAggStrategy(source="FV")),
    ("SELECT dweek, store, Vpct(salesamt BY store) FROM sales "
     "GROUP BY dweek, store", VerticalStrategy(use_update=True)),
    ("SELECT dweek, Vpct(salesamt) FROM sales GROUP BY dweek",
     VerticalStrategy(use_update=True)),
    ("SELECT dweek, Hpct(salesamt BY dept, monthno) FROM sales "
     "GROUP BY dweek", None),
])
def test_untraced_query_prints_only_its_feedback_statements(
        monkeypatch, sql, strategy):
    """The plan's steps and result reach the engine as trees.  Only
    the generation-time feedback statements (discovery, the
    optimizer's probes, a global total) are printed and lexed, as a
    client's statements are."""
    db = Database()
    load_sales(db, 500)
    plans = []

    def generate(*args, **kwargs):
        plans.append(generate_plan(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(execute, "generate_plan", generate)
    format_statement = formatter.format_statement
    lexed = _spy(monkeypatch, tokens, "tokenize")
    printed = _spy(monkeypatch, formatter, "format_statement")
    run_percentage_query(db, sql, strategy)
    (plan,) = plans
    executed = [step.statement for step in plan.steps
                if step.purpose not in execute._GENERATION_TIME]
    executed.append(plan.result_statement)
    assert not any(s is p for s in printed for p in executed)
    assert lexed == [sql] + [format_statement(s) for s in printed]
    assert all(len(text) < 200 for text in lexed)


def test_traced_query_prints_what_the_trace_shows(monkeypatch):
    db = Database(tracing=True)
    load_sales(db, 500)
    printed = _spy(monkeypatch, formatter, "format_statement")
    run_percentage_query(db, "SELECT store, Hpct(salesamt BY dweek) "
                             "FROM sales GROUP BY store")
    assert printed
