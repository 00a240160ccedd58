"""Decide whether two result sets agree.

Rules, stated once so every divergence report means the same thing:

* Results are **multisets of rows**; ordering never counts.  Rows are
  canonically sorted before comparison (NULL sorts first, then by type
  rank, then by value), so engines with different ORDER BY NULL
  placement still compare equal.
* ``NULL == NULL`` -- inside a result set NULL is a value (Gray's
  data-cube convention for NULL groups), not three-valued unknown.
* Numerics compare with ``math.isclose(rel_tol=1e-9, abs_tol=1e-9)``;
  ``8`` equals ``8.0`` (engines legitimately differ on sum() width).
  NaN equals NaN.
* Booleans are compared as integers (sqlite returns 0/1).
* An **error is an outcome**: if every variant raises, the case is
  consistent (the engines agree the input is degenerate); if some
  raise and some return rows, that is a divergence.

Where the documented contract is *bit-identical* rather than "same
answer" -- a view against its recompute, a re-run after a cancelled
or faulted query -- :func:`table_diff` compares result tables
bitwise instead.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from repro.engine.table import Table

REL_TOL = 1e-9
ABS_TOL = 1e-9


def _canonical_cell(value: Any):
    """Sort key for one cell: total order over NULL/number/str."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, float(value))
    if isinstance(value, (int, float)):
        if isinstance(value, float) and math.isnan(value):
            return (1, float("-inf"))
        return (1, round(float(value), 9))
    return (2, str(value))


def normalize_rows(rows: Sequence[Sequence[Any]]
                   ) -> list[tuple[Any, ...]]:
    """Canonically sorted copy of a result set."""
    return sorted((tuple(r) for r in rows),
                  key=lambda row: tuple(_canonical_cell(c) for c in row))


def cells_equal(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        a, b = int(a), int(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def rows_equal(left: Sequence[Sequence[Any]],
               right: Sequence[Sequence[Any]]) -> Optional[str]:
    """None when the multisets agree, else a one-line explanation."""
    left, right = normalize_rows(left), normalize_rows(right)
    if len(left) != len(right):
        return f"row count {len(left)} vs {len(right)}"
    for i, (a, b) in enumerate(zip(left, right)):
        if len(a) != len(b):
            return f"row {i}: arity {len(a)} vs {len(b)}"
        for j, (x, y) in enumerate(zip(a, b)):
            if not cells_equal(x, y):
                return f"row {i} col {j}: {x!r} vs {y!r}"
    return None


def compare_outcomes(base: tuple, other: tuple) -> Optional[str]:
    """Compare two ``("rows", rows)`` / ``("error", name)`` outcomes.

    Errors only match errors (any class -- engines word degenerate
    input differently); rows must match as a multiset.
    """
    if base[0] != other[0]:
        return f"{base[0]} ({_brief(base)}) vs {other[0]} ({_brief(other)})"
    if base[0] == "error":
        return None
    return rows_equal(base[1], other[1])


def _brief(outcome: tuple) -> str:
    if outcome[0] == "error":
        return str(outcome[1])
    return f"{len(outcome[1])} rows"


def table_diff(expected: Table, actual: Table) -> Optional[str]:
    """First bitwise difference between two result tables, or None.

    Stricter than row comparison: SQL types, null masks, row order and
    the raw bytes of the live values must all match, so NaN payloads
    and signed zeros count."""
    if expected.column_names() != actual.column_names():
        return (f"column names differ: {expected.column_names()} != "
                f"{actual.column_names()}")
    for name in expected.column_names():
        left, right = expected.column(name), actual.column(name)
        if left.sql_type != right.sql_type:
            return (f"column {name!r}: type {left.sql_type.name} != "
                    f"{right.sql_type.name}")
        if len(left.values) != len(right.values):
            return (f"column {name!r}: {len(left.values)} vs "
                    f"{len(right.values)} rows")
        if not np.array_equal(left.nulls, right.nulls):
            return f"column {name!r}: null masks differ"
        live = ~np.asarray(left.nulls, dtype=bool)
        lv = np.asarray(left.values)[live]
        rv = np.asarray(right.values)[live]
        if lv.size == 0:
            # All-NULL column: the backing array under the mask is an
            # implementation detail with no observable value bits.
            continue
        if lv.dtype != rv.dtype:
            return (f"column {name!r}: dtype {lv.dtype} != "
                    f"{rv.dtype}")
        if lv.dtype == object:
            if any(x != y for x, y in zip(lv, rv)):
                return f"column {name!r}: values differ"
        elif lv.tobytes() != rv.tobytes():
            return f"column {name!r}: values differ bitwise"
    return None
