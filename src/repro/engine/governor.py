"""The per-query resource governor.

A :class:`ResourceGovernor` enforces two budgets over one query --
materialized rows and result/temp width -- the knobs a production
deployment turns so one runaway percentage query cannot starve the
host (the ROADMAP's heavy-traffic scenario).  Checks are
*cooperative*: the executor calls :meth:`charge_rows` /
:meth:`check_width` at operator boundaries (scan, join, factorize, DML
append, final projection), so a single vectorized numpy call is never
interrupted but every statement is checked many times.

The query is the outermost open query scope (:mod:`repro.engine.scope`):
a statement, a script, a generated plan and a service script each open
one, and the paper's multi-statement scripts stand or fall together,
so the row meter lives on the outermost scope's
:class:`~repro.engine.scope.QueryRecord` (``rows_charged``) and nested
scopes charge it too.  The governor keeps no per-query state of its
own.  Wall-clock limits are the cancel token's deadline
(:mod:`repro.engine.cancel`), which every row charge polls.  Budget
overruns raise :class:`~repro.errors.RowBudgetExceeded` and
:class:`~repro.errors.WidthBudgetExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.engine import cancel as cancel_mod
from repro.errors import RowBudgetExceeded, WidthBudgetExceeded
from repro.obs import tracer as tracer_mod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.scope import QueryRecord


@dataclass(frozen=True)
class ResourceBudget:
    """Per-query ceilings; ``None`` disables the corresponding check.

    Attributes:
        max_rows: total rows the query may materialize (scans + join
            outputs + rows written), a proxy for working-set pressure.
        max_result_width: widest table (columns) the query may
            produce -- the budget the paper's wide ``Hpct`` pivots
            are naturally in tension with.
    """

    max_rows: Optional[int] = None
    max_result_width: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_rows", "max_result_width"):
            limit = getattr(self, name)
            if limit is not None and limit < 0:
                raise ValueError(f"{name} must be >= 0 or None, "
                                 f"not {limit}")

    @property
    def unlimited(self) -> bool:
        return self.max_rows is None and self.max_result_width is None

    def describe(self) -> str:
        if self.unlimited:
            return "off"
        parts = []
        if self.max_rows is not None:
            parts.append(f"rows={self.max_rows}")
        if self.max_result_width is not None:
            parts.append(f"width={self.max_result_width}")
        return " ".join(parts)


class ResourceGovernor:
    """Cooperative budget enforcement.  Each check takes the query it
    applies to -- the outermost open scope's record, or ``None``
    outside any scope, where the check is a no-op (a standalone
    Executor runs ungoverned)."""

    def __init__(self, budget: ResourceBudget = ResourceBudget()):
        self.budget = budget

    def set_budget(self, budget: ResourceBudget) -> None:
        self.budget = budget

    def charge_rows(self, query: Optional["QueryRecord"], n: int,
                    context: str = "") -> None:
        """Meter ``n`` materialized rows on ``query``, then poll the
        ambient cancel token (row charges are exactly the operator
        boundaries where time can have passed, so a deadline fires
        between named sites too)."""
        if query is None:
            return
        query.rows_charged += int(n)
        tracer = tracer_mod.active_tracer()
        if tracer is not None and tracer.enabled:
            # Row charges are the governor's checkpoints; the event
            # records where the budget meter moved.
            tracer.event("governor-check", kind="governor",
                         rows=int(n), context=context,
                         total_rows=query.rows_charged)
        limit = self.budget.max_rows
        if limit is not None and query.rows_charged > limit:
            raise RowBudgetExceeded(
                f"query materialized {query.rows_charged} rows; the "
                f"budget is {limit}"
                + (f" (at {context})" if context else ""))
        cancel_mod.poll(context)

    def check_width(self, query: Optional["QueryRecord"], width: int,
                    context: str = "") -> None:
        limit = self.budget.max_result_width
        if query is None or limit is None:
            return
        if width > limit:
            raise WidthBudgetExceeded(
                f"table of {width} columns exceeds the result-width "
                f"budget of {limit}"
                + (f" (at {context})" if context else ""))
