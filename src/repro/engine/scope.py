"""The query boundary: the one scope every kind of query opens.

The paper's unit of cost is the *query* -- one Vpct/Hpct request
becomes a sequence of SQL statements and Tables 4/5/6 report one
number for the whole sequence.  :func:`query_scope` is where a query
begins and ends, whatever its shape: a statement
(``Database.execute_statement``, SQL ``EXPLAIN ANALYZE``'s inner run),
a script (``Database.execute_script``, a service script) or a
generated plan (``core.execute.execute_plan``).  It is the only code
outside ``repro.fuzz`` that activates a cancel token, activates the
tracer and opens a root span, and it fills one :class:`QueryRecord`
on the way out.  The outermost scope on a thread also holds the
columns its query reads from disk pages until it ends (:func:`hold`).

Scopes nest per thread: an inner scope inherits its parent's token and
queue wait and charges its rows to the outermost scope's record.  The
*outermost* scope is therefore the unit every limit applies to --
``ResourceBudget`` meters its ``rows_charged`` and one deadline token
covers it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.engine import cancel
from repro.engine.cancel import CancelToken
from repro.engine.stats import StatementStats
from repro.obs import tracer as tracer_mod
from repro.obs.tracer import Span, render_tree


@dataclass
class QueryRecord:
    """What one query cost, filled when its scope exits.
    ``ExecutionReport`` and ``ServiceReport`` extend it with what is
    specific to a plan and to a scheduled script."""

    #: Clock seconds inside the scope (queue wait excluded).
    elapsed_seconds: float = 0.0
    #: Engine counter deltas over the scope (with the elapsed time
    #: again, as the statement history keeps them).  Under concurrency
    #: the diff can include other sessions' work (shared counters);
    #: the charge audit therefore only runs serially.
    counters: StatementStats = field(default_factory=StatementStats)
    #: The governor's row meter: rows materialized by the outermost
    #: scope so far (an inner scope's record keeps the outermost's
    #: count as it left it; ``ResourceBudget.max_rows`` caps it).
    rows_charged: int = 0
    #: Seconds between submission and the start of execution (0.0
    #: when run without the service scheduler).  A service deadline
    #: counts it: the script's token is built at submission.
    queue_wait_seconds: float = 0.0
    #: The scope's root span (script -> statement -> plan -> plan-step
    #: -> statement -> operator), or None when neither the database
    #: nor the scope's opener asked for a trace.
    trace: Optional[Span] = None


class ScopeLocal(threading.local):
    """The per-thread scope state an ``Executor`` owns: one executor
    serves every scheduler worker, so what "my query" observed must
    not leak across concurrent queries."""

    #: The outermost open scope's record -- the query every limit
    #: applies to, whose ``rows_charged`` the governor meters.
    root: Optional[QueryRecord] = None
    #: The record of the last outermost scope that finished.
    last: Optional[QueryRecord] = None


class _Held(threading.local):
    #: Columns read from disk pages under the outermost query scope
    #: open on this thread; None outside every scope.
    columns: Optional[list] = None


_HELD = _Held()


def hold(column: Any) -> None:
    """Keep a column just read from disk pages materialized until the
    outermost query scope open on this thread ends, so the statements
    of one query -- a generated plan, a script -- share it instead of
    each re-reading its pages.  Outside every scope this does
    nothing."""
    if _HELD.columns is not None:
        _HELD.columns.append(column)


@contextmanager
def query_scope(executor, name: str,
                token: Optional[CancelToken] = None,
                force_trace: bool = False, queue_wait: float = 0.0,
                **attrs: Any) -> Iterator[QueryRecord]:
    """Open a query scope over ``executor``'s stats and tracer; yields
    the :class:`QueryRecord` it fills on exit.

    ``token`` is the cancel token to install (None inherits whatever
    is ambient); every cancellable site and governor row charge inside
    checks it.  ``name`` is both the name and the kind of the root
    span, ``attrs`` its attributes.  ``force_trace`` records a trace
    on a tracing-off database for this thread only (see
    :meth:`Tracer.forced`).
    """
    local: ScopeLocal = executor.scopes
    root = local.root
    record = QueryRecord(
        queue_wait_seconds=queue_wait if root is None
        else root.queue_wait_seconds)
    tracer, stats = executor.tracer, executor.stats
    clock = tracer.clock
    cancel_ctx = cancel.activate(token) if token is not None \
        else nullcontext()
    force_ctx = tracer.forced() if force_trace else nullcontext()
    if root is None:
        local.root = record
    holds = _HELD.columns is None
    if holds:
        _HELD.columns = []
    try:
        with cancel_ctx, force_ctx, tracer_mod.activate(tracer):
            before = stats.snapshot()
            started = clock.now()
            try:
                with tracer.span(name, kind=name, **attrs) as span:
                    record.trace = span
                    yield record
            finally:
                record.elapsed_seconds = clock.now() - started
                record.counters = stats.diff_since(before)
                record.counters.elapsed_seconds = record.elapsed_seconds
                if root is not None:
                    record.rows_charged = root.rows_charged
    finally:
        if holds:
            _HELD.columns = None
        if root is None:
            local.root = None
            local.last = record


def render_explain_analyze(header: list[str], trace: Span,
                           normalize=None) -> str:
    """EXPLAIN ANALYZE text, for every surface: ``header`` lines, then
    the actuals span tree.  ``normalize`` is passed through to
    :func:`repro.obs.tracer.render_tree`."""
    return "\n".join(header) + "\n" \
        + render_tree(trace, normalize=normalize)
