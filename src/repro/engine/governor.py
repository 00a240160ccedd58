"""The per-query resource governor.

A :class:`ResourceGovernor` enforces three budgets over one *query
window* -- wall-clock seconds, materialized rows, and result/temp
width -- the knobs a production deployment turns so one runaway
percentage query cannot starve the host (the ROADMAP's heavy-traffic
scenario).  Checks are *cooperative*: the executor calls
:meth:`check_time` / :meth:`charge_rows` / :meth:`check_width` at
operator boundaries (scan, join, factorize, DML append, final
projection), so a single vectorized numpy call is never interrupted
but every statement crosses a checkpoint many times.

Windows nest and are thread-local, and exactly one piece of code
opens them: the query scope (:mod:`repro.engine.scope`).  A statement,
a script, a generated plan and a service script each open a scope, and
the *outermost* one on a thread is the governed unit (the paper's
multi-statement scripts stand or fall together); inner windows join it
instead of resetting the clock.  Budget overruns raise the typed
errors from :mod:`repro.errors` (:class:`~repro.errors.QueryTimeout`,
:class:`~repro.errors.RowBudgetExceeded`,
:class:`~repro.errors.WidthBudgetExceeded`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.engine import cancel as cancel_mod
from repro.errors import (QueryTimeout, RowBudgetExceeded,
                          WidthBudgetExceeded)
from repro.obs import tracer as tracer_mod
from repro.obs.clock import Clock, MonotonicClock


@dataclass(frozen=True)
class ResourceBudget:
    """Per-query ceilings; ``None`` disables the corresponding check.

    Attributes:
        max_seconds: wall-clock budget for one query window.
        max_rows: total rows the window may materialize (scans +
            join outputs + rows written), a proxy for working-set
            pressure.
        max_result_width: widest table (columns) the window may
            produce -- the budget the paper's wide ``Hpct`` pivots
            are naturally in tension with.
    """

    max_seconds: Optional[float] = None
    max_rows: Optional[int] = None
    max_result_width: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return (self.max_seconds is None and self.max_rows is None
                and self.max_result_width is None)

    def describe(self) -> str:
        if self.unlimited:
            return "off"
        parts = []
        if self.max_seconds is not None:
            parts.append(f"timeout={self.max_seconds:g}s")
        if self.max_rows is not None:
            parts.append(f"rows={self.max_rows}")
        if self.max_result_width is not None:
            parts.append(f"width={self.max_result_width}")
        return " ".join(parts)


class _Window:
    __slots__ = ("depth", "started", "rows")

    def __init__(self) -> None:
        self.depth = 0
        self.started = 0.0
        self.rows = 0


class ResourceGovernor:
    """Cooperative budget enforcement over thread-local query windows."""

    def __init__(self, budget: ResourceBudget = ResourceBudget(),
                 clock: Optional[Clock] = None):
        self.budget = budget
        #: Injected time source -- the same clock the tracer and any
        #: ambient deadline token use, so wall-clock budget tests run
        #: deterministically under ``ManualClock``.
        self.clock = clock if clock is not None else MonotonicClock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def set_budget(self, budget: ResourceBudget) -> None:
        self.budget = budget

    def _window(self) -> _Window:
        window = getattr(self._local, "window", None)
        if window is None:
            window = _Window()
            self._local.window = window
        return window

    @property
    def active(self) -> bool:
        return self._window().depth > 0

    @contextmanager
    def window(self) -> Iterator["ResourceGovernor"]:
        """Open (or join) this thread's query window.

        The outermost entry resets the clock and the row meter; nested
        entries share them, so a plan-level window governs every
        statement the plan runs.
        """
        state = self._window()
        state.depth += 1
        if state.depth == 1:
            state.started = self.clock.now()
            state.rows = 0
        try:
            yield self
        finally:
            state.depth -= 1

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def check_time(self, context: str = "") -> None:
        # Every governor checkpoint is also a cancellation safepoint:
        # the ambient token's deadline (which shrinks as a script
        # progresses) is enforced wherever the wall-clock budget is.
        cancel_mod.poll(context)
        limit = self.budget.max_seconds
        state = self._window()
        if limit is None or state.depth == 0:
            return
        elapsed = self.clock.now() - state.started
        if elapsed > limit:
            raise QueryTimeout(
                f"query exceeded its {limit:g}s wall-clock budget "
                f"after {elapsed:.3f}s"
                + (f" (at {context})" if context else ""))

    def charge_rows(self, n: int, context: str = "") -> None:
        """Meter ``n`` materialized rows, then re-check the clock (row
        charges are exactly the operator boundaries where time can
        have passed)."""
        state = self._window()
        if state.depth == 0:
            return
        state.rows += int(n)
        tracer = tracer_mod.active_tracer()
        if tracer is not None and tracer.enabled:
            # Row charges are the governor's checkpoints; the event
            # records where the budget meter moved (elapsed time is
            # real wall clock, so it is deliberately not an attribute
            # -- golden traces must stay deterministic).
            tracer.event("governor-check", kind="governor",
                         rows=int(n), context=context,
                         total_rows=state.rows)
        limit = self.budget.max_rows
        if limit is not None and state.rows > limit:
            raise RowBudgetExceeded(
                f"query materialized {state.rows} rows; the budget "
                f"is {limit}" + (f" (at {context})" if context else ""))
        self.check_time(context)

    def check_width(self, width: int, context: str = "") -> None:
        limit = self.budget.max_result_width
        if limit is None or self._window().depth == 0:
            return
        if width > limit:
            raise WidthBudgetExceeded(
                f"table of {width} columns exceeds the result-width "
                f"budget of {limit}"
                + (f" (at {context})" if context else ""))

    # ------------------------------------------------------------------
    def usage(self) -> dict:
        """A snapshot of the current (or just-closed) window."""
        state = self._window()
        elapsed = (self.clock.now() - state.started) \
            if state.depth else 0.0
        return {
            "active": state.depth > 0,
            "elapsed_seconds": elapsed,
            "rows_charged": state.rows,
            "budget": {
                "max_seconds": self.budget.max_seconds,
                "max_rows": self.budget.max_rows,
                "max_result_width": self.budget.max_result_width,
            },
        }
