"""A generated Hpct statement costs analysis per family, not per cell.

The transpose INSERT of an Hpct plan prints one select item per result
cell, but holds them as one cell family.  Spies count what the binder
and its readers do for it: the family is bound and rewritten once (and
no cell at all), the pivot patterns are read once per distinct call
or cell block, and the code generator sanitizes each distinct BY value
once -- the same counts for 4 x 6 cells as for 8 x 12.
"""

import pytest

from repro import Database
from repro.core import HorizontalStrategy
from repro.core.execute import cleanup_plan, execute_plan, generate_plan
from repro.core import naming, plan as plan_mod
from repro.engine import binder, pivot, planner
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
        calls.append(args[0] if len(args) == 1 else args)
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
        bound, rewritten, patterns = [], [], []
        with monkeypatch.context() as patch:
            _count(patch, planner, "bind", bound)
            _count(patch, binder.GroupRewrite, "rewrite", rewritten)
            _count(patch, pivot, "_pattern", patterns)
            execute_plan(db, plan)
    finally:
        cleanup_plan(db, plan)
    family, = [item for item in transpose.statement.select.items
               if isinstance(item, ast.CellFamily)]
    cells = [cell.expr for cell in family.items()]
    # ``rewrite`` is spied on its class: its first argument is the
    # rewrite, its second the binder's record.
    walked = bound + [record.family or record.expr
                      for _, record in rewritten]
    return {"cells": len(family), "walks": len(walked),
            "family_walks": sum(root is family for root in walked),
            "cell_walks": sum(any(root == cell for cell in cells)
                              for root in walked),
            "patterns": len(patterns), "sanitized": len(sanitized)}


@pytest.mark.parametrize("source", ["FV", "F"])
def test_analysis_is_per_shape_not_per_cell(monkeypatch, source):
    small = _transpose_counts(monkeypatch, 4, 6, source)
    wide = _transpose_counts(monkeypatch, 8, 12, source)
    for counts, cells in ((small, 4 * 6), (wide, 8 * 12)):
        assert counts["cells"] == cells
        # The family is bound once and rewritten once; no cell is
        # walked.
        assert counts["family_walks"] == 2
        assert counts["cell_walks"] == 0
    # So the plan's walks do not grow with its cells.
    assert wide["walks"] == small["walks"]
    # One BY value, one sanitize: 4 + 6 and 8 + 12 distinct values.
    assert small["sanitized"] == 4 + 6
    assert wide["sanitized"] == 8 + 12
    # Pivot patterns are read once per call or cell block, whatever
    # the cell count.
    assert wide["patterns"] == small["patterns"]
