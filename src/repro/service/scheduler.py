"""Admission control and scheduling for the concurrent query service.

The scheduler is a bounded :class:`~concurrent.futures.
ThreadPoolExecutor` (thread prefix ``repro-query``; one query per
worker) with three admission gates layered on the resource governor:

* a global queue-depth bound -- submissions beyond
  ``workers + max_queue_depth`` raise
  :class:`~repro.errors.AdmissionRejected` instead of piling up;
* a per-session in-flight cap -- one client cannot monopolize the pool;
* the per-query budgets the governor already enforces (time, rows,
  width) apply inside each script's query scope
  (:mod:`repro.engine.scope`), with the measured queue wait reported
  separately on its record (the clock starts when execution does).

Scripts are classified on the submitting thread (syntax errors surface
immediately, not through the future):

* **read** -- every statement is a SELECT or EXPLAIN.  Runs against a
  private :class:`~repro.service.snapshots.SnapshotDatabase`; extended
  Vpct/Hpct selects go through the resilient percentage-query runner
  (savepoints, retry, strategy fallback) entirely inside the overlay.
* **write** -- anything else.  Runs on the base database under the
  service's single writer lock, wrapped in a catalog savepoint so a
  mid-script failure rolls the whole script back: readers (who only
  snapshot between scripts) never see a torn plan, and neither does a
  writer that dies halfway.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.execute import rollback_or_chain, run_resilient
from repro.core.model import build_percentage_query
from repro.engine.cancel import CancelToken
from repro.engine.scope import QueryRecord, render_explain_analyze
from repro.engine.table import Table
from repro.errors import AdmissionRejected, OverloadError, ServiceError
from repro.service.session import Session
from repro.sql import ast
from repro.sql.parser import parse_script


@dataclass(kw_only=True)
class ServiceReport(QueryRecord):
    """What one scheduled script did and what it cost -- the script
    scope's :class:`~repro.engine.scope.QueryRecord` (elapsed time,
    queue wait, governor usage, trace) plus what is the service's."""

    #: ``"read"`` (snapshot-isolated) or ``"write"`` (writer lock).
    kind: str
    sql: str
    session_id: int
    #: One entry per statement: a Table for SELECT/EXPLAIN, a row count
    #: for DML/DDL.
    results: list[Any] = field(default_factory=list)
    #: Catalog version the script saw: the snapshot's version for
    #: reads, the post-commit version for writes.
    snapshot_version: int = 0
    statements_run: int = 0
    #: Always False (brownout is gone); kept for its sole reader, the
    #: frozen ``benchmarks/e2e/pipeline.py:244``.
    brownout: bool = False
    #: The deadline (seconds from submission) this script ran under,
    #: or None when unbounded.
    deadline_seconds: Optional[float] = None

    @property
    def result(self) -> Any:
        """The last statement's result (the script's "answer")."""
        return self.results[-1] if self.results else None

    def rows(self) -> list[tuple]:
        """The last statement's rows (requires it to be a SELECT)."""
        if not isinstance(self.result, Table):
            raise TypeError("the script's last statement returned no rows")
        return self.result.to_rows()

    def explain_analyze(self, normalize=None) -> str:
        """EXPLAIN ANALYZE text for the whole script: a header plus
        the actuals span tree.  Requires the service to run with
        tracing enabled (``QueryService`` over a
        ``Database(tracing=True)``)."""
        if self.trace is None:
            raise ServiceError(
                "no trace recorded; open the service's database with "
                "tracing=True before submitting the script")
        return render_explain_analyze([
            f"script: {self.kind}  session: {self.session_id}  "
            f"statements: {self.statements_run}",
        ], self.trace, normalize)


def _is_extended_select(statement: ast.Statement) -> bool:
    return isinstance(statement, ast.Select) and any(
        ast.contains_extended(item.expr) for item in statement.items)


def _classify(statements: list[ast.Statement]) -> str:
    for statement in statements:
        if not isinstance(statement, (ast.Select, ast.Explain)):
            return "write"
    return "read"


class Scheduler:
    """Bounded worker pool with admission control.

    Admission sheds load by queue wait: a deadline-bearing query whose
    *predicted* queue wait already exceeds its deadline is refused with
    a retryable :class:`~repro.errors.OverloadError` instead of being
    admitted, burning a worker slot, and cancelled anyway.  Prediction
    is backlog ahead of it divided by throughput (an EWMA of recent
    script runtimes per worker).

    Args:
        service: the owning :class:`~repro.service.QueryService`.
        workers: pool size (concurrent queries; reads run truly
            concurrently, writes serialize on the writer lock).
        max_queue_depth: admitted-but-not-running queries allowed
            beyond the pool size before submissions are rejected.
        session_inflight_cap: per-session concurrent-query ceiling.
        breaker_threshold / breaker_cooldown_seconds: per-session
            circuit breaker -- after ``breaker_threshold`` consecutive
            failures the session's submissions are refused
            (:class:`~repro.errors.CircuitBreakerOpen`) for the
            cooldown, then one trial query half-opens it.
    """

    #: EWMA smoothing factor for the per-script runtime estimate.
    _EWMA_ALPHA = 0.2

    def __init__(self, service, workers: int = 4,
                 max_queue_depth: int = 16,
                 session_inflight_cap: int = 4,
                 breaker_threshold: int = 5,
                 breaker_cooldown_seconds: float = 1.0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if session_inflight_cap < 1:
            raise ValueError("session_inflight_cap must be >= 1")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be >= 0")
        self._service = service
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self.session_inflight_cap = session_inflight_cap
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_seconds = breaker_cooldown_seconds
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="repro-query")
        self._lock = threading.Lock()
        self._admitted = 0
        self._shutdown = False
        #: EWMA of recent script runtimes (seconds); 0.0 until the
        #: first script completes, which disables shed prediction.
        self._ewma_run_seconds = 0.0
        self._clock = service.db.clock
        self._metrics = service.db.metrics
        self._inflight = self._metrics.gauge(
            "service_inflight_queries",
            help="scripts admitted and not yet finished "
                 "(queued + running)")

    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        """Queries admitted and not yet finished (queued + running)."""
        return self._admitted

    def _session_deadline(self, session: Session) -> Optional[float]:
        """The deadline (seconds from submission) scripts of this
        session run under: the session default, else the database-wide
        default, else none."""
        if session.defaults.deadline_seconds is not None:
            return session.defaults.deadline_seconds
        return self._service.db.default_deadline_seconds

    def _reject(self, reason: str) -> None:
        self._metrics.counter(
            "service_rejections_total",
            help="submissions refused at admission, by reason",
            reason=reason).inc()

    def submit(self, session: Session, sql: str) -> "Future[ServiceReport]":
        """Admit ``sql`` for ``session`` and return its future.

        Parsing (and therefore syntax errors) happens here, on the
        caller's thread, as do the admission gates -- queue depth,
        session cap, circuit breaker, and (for deadline-bearing
        sessions) load shedding; execution errors come through the
        future.
        """
        statements = parse_script(sql)
        if not statements:
            raise ServiceError("cannot schedule an empty script")
        kind = _classify(statements)
        deadline = self._session_deadline(session)
        try:
            session._breaker_allow(self._clock.now())
        except AdmissionRejected:
            self._reject("breaker")
            raise
        with self._lock:
            if self._shutdown:
                raise ServiceError("the query service is shut down")
            if self._admitted >= self.workers + self.max_queue_depth:
                self._reject("queue-full")
                raise AdmissionRejected(
                    f"scheduler queue is full ({self._admitted} queries "
                    f"admitted; capacity {self.workers} workers + "
                    f"{self.max_queue_depth} queued)")
            if deadline is not None and self._ewma_run_seconds > 0.0:
                backlog = max(0, self._admitted - self.workers + 1)
                predicted = (backlog * self._ewma_run_seconds
                             / self.workers)
                if predicted > deadline:
                    # Admitting would only burn a worker slot on an
                    # answer nobody will wait for: the query would sit
                    # past its deadline and be cancelled at its first
                    # safepoint anyway.
                    self._reject("shed")
                    self._metrics.counter(
                        "query_cancelled_total",
                        help="queries cancelled at a safepoint, "
                             "by reason",
                        reason="shed").inc()
                    raise OverloadError(
                        f"predicted queue wait {predicted:.3f}s exceeds "
                        f"the {deadline:g}s deadline; resubmit after "
                        f"the backlog drains",
                        retry_after_seconds=predicted - deadline)
            try:
                session._reserve(self.session_inflight_cap)
            except AdmissionRejected:
                self._reject("session-cap")
                raise
            self._admitted += 1
        self._inflight.inc()
        self._metrics.counter(
            "service_scripts_total",
            help="scripts admitted by the scheduler",
            kind=kind).inc()
        # The script's cancel token is built at *submission*, so its
        # deadline covers queue wait: a query stuck behind a backlog
        # cancels at its very first safepoint.
        token = None
        if deadline is not None:
            token = CancelToken.with_timeout(
                deadline, clock=self._clock, registry=self._metrics)
        enqueued = self._clock.now()
        try:
            future = self._pool.submit(self._run, session, sql,
                                       statements, kind, enqueued,
                                       token, deadline)
        except BaseException:
            self._finish(session, None)
            raise
        future.add_done_callback(
            lambda f: self._finish(session, f))
        return future

    def _finish(self, session: Session,
                future: Optional["Future[ServiceReport]"]) -> None:
        with self._lock:
            self._admitted -= 1
        self._inflight.dec()
        session._release()
        if future is None:
            return
        exc = future.exception()
        session._breaker_note(exc is None, self._clock.now(),
                              self.breaker_threshold,
                              self.breaker_cooldown_seconds)
        if exc is None:
            elapsed = future.result().elapsed_seconds
            with self._lock:
                if self._ewma_run_seconds == 0.0:
                    self._ewma_run_seconds = elapsed
                else:
                    self._ewma_run_seconds += self._EWMA_ALPHA * (
                        elapsed - self._ewma_run_seconds)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._shutdown = True
        self._pool.shutdown(wait=wait)

    # ------------------------------------------------------------------
    # Worker-side execution
    # ------------------------------------------------------------------
    def _run(self, session: Session, sql: str,
             statements: list[ast.Statement], kind: str,
             enqueued: float, token: Optional[CancelToken],
             deadline: Optional[float]) -> ServiceReport:
        """Run one admitted script as one query scope.  A read runs on
        a private snapshot reader; a write on the base database under
        the writer lock, inside a catalog savepoint."""
        service = self._service
        write = kind == "write"
        with service.write_lock if write else nullcontext():
            attrs = {}
            if write:
                db = service.db
                savepoint = db.catalog.savepoint()
            else:
                snapshot = service.snapshots.acquire()
                db = service.snapshots.reader(snapshot)
                attrs["snapshot_version"] = snapshot.version
            wait = self._clock.now() - enqueued
            self._metrics.histogram(
                "service_queue_wait_seconds",
                help="seconds between submission and execution start",
                session=str(session.id)).observe(wait)
            # The script is the governed unit, exactly like a generated
            # percentage plan: one scope for all of it.
            with db.scope("script", cancel_token=token, queue_wait=wait,
                          script_kind=kind, session=session.id,
                          **attrs) as record:
                try:
                    results, statements_run = self._run_statements(
                        db, statements, sql)
                except BaseException as exc:
                    # All-or-nothing write scripts: a mid-script
                    # failure (including a deadline firing between
                    # statements) restores the pre-script catalog, so
                    # the torn middle never becomes the committed
                    # state.  A reader's overlay is simply dropped.
                    if write:
                        rollback_or_chain(db, savepoint, exc)
                    raise
            version = db.catalog.version if write else snapshot.version
        return ServiceReport(
            kind=kind, sql=sql, session_id=session.id, results=results,
            snapshot_version=version, statements_run=statements_run,
            deadline_seconds=deadline,
            **vars(record))

    @staticmethod
    def _run_statements(db, statements: list[ast.Statement],
                        sql: str) -> tuple[list[Any], int]:
        """Execute ``statements`` against ``db``: the results, and how
        many engine statements that took.

        Extended Vpct/Hpct selects route through the resilient
        percentage-query runner (savepoints, transient retry, strategy
        fallback); everything else is a plain engine statement.  Each
        is a scope nested in the script's.
        """
        results: list[Any] = []
        statements_run = 0
        for statement in statements:
            if _is_extended_select(statement):
                sub = run_resilient(
                    db, build_percentage_query(statement, sql))
                results.append(sub.result)
                statements_run += sub.statements_run
            else:
                results.append(db.execute_statement(statement, sql))
                statements_run += 1
        return results, statements_run
