"""A generated Hpct statement costs analysis per family, not per cell.

The transpose INSERT of an Hpct plan prints one select item per result
cell, but holds them as one cell family.  Spies count what the binder
and its readers do for it: the family's template is descended once
(and no cell at all), each call template of a pivot family is analysed
once, each shape is compiled once, and the code generator sanitizes
each distinct BY value once -- the same counts for 4 x 6 cells as for
8 x 12.
"""

import pytest

from repro import Database
from repro.core import HorizontalStrategy
from repro.core.execute import cleanup_plan, execute_plan, generate_plan
from repro.core import naming, plan as plan_mod
from repro.engine import binder, pivot
from repro.sql import ast


def _database(n_d1: int, n_d2: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE f (g INTEGER, d1 INTEGER, d2 INTEGER, "
               "a REAL)")
    rows = [(i % 3, i % n_d1, (i // n_d1) % n_d2, float(i % 7))
            for i in range(n_d1 * n_d2 * 2)]
    db.execute("INSERT INTO f VALUES "
               + ", ".join(f"({g}, {d1}, {d2}, {a})"
                           for g, d1, d2, a in rows))
    return db


def _count(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)


def _transpose_counts(monkeypatch, n_d1: int, n_d2: int, source: str):
    """What generating an Hpct plan over ``n_d1 x n_d2`` BY
    combinations and running it cost, counted."""
    db = _database(n_d1, n_d2)
    sanitized = []
    with monkeypatch.context() as patch:
        _count(patch, naming, "sanitize", sanitized)
        plan = generate_plan(
            db, "SELECT g, Hpct(a BY d1, d2) FROM f GROUP BY g",
            HorizontalStrategy(source=source))
    transpose = next(step for step in plan.steps
                     if step.purpose == plan_mod.TRANSPOSE)
    try:
        descended, patterns, programs = [], [], []
        with monkeypatch.context() as patch:
            _count(patch, binder, "_flatten", descended)
            _count(patch, pivot, "_pattern", patterns)
            _count(patch, binder, "_Program", programs)
            execute_plan(db, plan)
    finally:
        cleanup_plan(db, plan)
    # The cells: the one other item, ``g``, is also the GROUP BY key
    # (one node in both places), which the rewrite binds as well.
    family, = [item for item in transpose.statement.select.items
               if isinstance(item, ast.CellFamily)]
    cells = [expr for expr in descended
             if any(expr == cell.expr for cell in family.items())]
    return {"cells": len(family), "descents": len(descended),
            "family_descents": sum(root is family.template
                                   for root in descended),
            "cell_descents": len(cells),
            "patterns": len(patterns), "programs": len(programs),
            "sanitized": len(sanitized)}


@pytest.mark.parametrize("source", ["FV", "F"])
def test_analysis_is_per_shape_not_per_cell(monkeypatch, source):
    small = _transpose_counts(monkeypatch, 4, 6, source)
    wide = _transpose_counts(monkeypatch, 8, 12, source)
    for counts, cells in ((small, 4 * 6), (wide, 8 * 12)):
        assert counts["cells"] == cells
        # The family is descended once, as one template; no cell is.
        assert counts["family_descents"] == 1
        assert counts["cell_descents"] == 0
    # So the plan's descents do not grow with its cells.
    assert wide["descents"] == small["descents"]
    # One BY value, one sanitize: 4 + 6 and 8 + 12 distinct values.
    assert small["sanitized"] == 4 + 6
    assert wide["sanitized"] == 8 + 12
    # Call templates are analysed, and shapes compiled, once each,
    # whatever the cell count.
    assert wide["patterns"] == small["patterns"]
    assert wide["programs"] == small["programs"]
