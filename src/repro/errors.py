"""Exception hierarchy for the repro package.

Every error raised by the engine, the SQL front end, or the percentage
query code generator derives from :class:`ReproError`, so callers can
catch one base class.  The split mirrors where in the stack the problem
was detected:

* :class:`SQLSyntaxError` -- the SQL text could not be tokenized/parsed.
* :class:`PlanningError` -- the statement parsed but cannot be planned
  (unknown table/column, ambiguous reference, bad aggregate usage...).
* :class:`ExecutionError` -- a runtime failure while executing a plan.
* :class:`CatalogError` -- catalog violations (duplicate table, DBMS
  limits such as the maximum column count exceeded...).
* :class:`PercentageQueryError` -- a percentage query violates the usage
  rules of Vpct()/Hpct()/Hagg() defined in the paper (Section 3).

The resilient-execution layer adds a structured runtime taxonomy on
top of :class:`ExecutionError`, classified by *what the caller should
do next*:

* :class:`TransientError` (``retryable``) -- the failure is expected to
  go away on its own; the plan runner retries the whole plan with
  backoff after rolling the catalog back to its pre-plan savepoint.
* :class:`ResourceExhausted` (``fallback_eligible``) -- the query blew
  a resource budget; retrying the same plan would fail identically,
  but re-planning with the alternate evaluation strategy may succeed.
  Concrete budgets raise the subtypes :class:`RowBudgetExceeded` and
  :class:`WidthBudgetExceeded`.  The wall-clock limit is the deadline,
  a :class:`QueryCancelledError`, which never falls back -- an
  alternate plan is not presumed faster.
* :class:`SimulatedCrash` -- a fault-injection-only hard stop; neither
  retried nor replanned, it must surface to the caller after rollback
  (the crash-consistency sweep asserts the catalog is untouched).

Every class carries ``retryable`` / ``fallback_eligible`` flags so
policy code switches on capability, not on class identity.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package.

    ``retryable``: re-running the same plan may succeed.
    ``fallback_eligible``: re-planning with an alternate evaluation
    strategy may succeed.
    """

    retryable = False
    fallback_eligible = False


class SQLSyntaxError(ReproError):
    """The SQL text is malformed.

    Carries the position (1-based line and column) where tokenization or
    parsing failed, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class PlanningError(ReproError):
    """The statement is syntactically valid but cannot be planned."""


class GroupingSetError(PlanningError):
    """A CUBE/ROLLUP/GROUPING SETS clause is malformed (duplicate or
    empty grouping set, bad GROUPING() argument...).  The message
    always names the offending set so repros are self-describing."""

    def __init__(self, message: str, grouping_set: str | None = None):
        self.grouping_set = grouping_set
        if grouping_set is not None:
            message = f"{message}: {grouping_set}"
        super().__init__(message)


class ExecutionError(ReproError):
    """A failure occurred while executing a plan."""


class TransientError(ExecutionError):
    """A failure expected to disappear on retry (injected flaky I/O,
    a lost lock race...).  The plan runner retries with backoff."""

    retryable = True


class ResourceExhausted(ExecutionError):
    """A per-query resource budget was exceeded.

    Retrying the identical plan is pointless, but the alternate
    evaluation strategy may stay within budget (e.g. the indirect
    FV route materializes narrower intermediates than a direct
    CASE pivot pass, and vice versa).
    """

    fallback_eligible = True


class RowBudgetExceeded(ResourceExhausted):
    """The query materialized more rows than its budget allows."""


class WidthBudgetExceeded(ResourceExhausted):
    """A result or temp table is wider than the per-query budget."""


class SimulatedCrash(ExecutionError):
    """A fault-injection hard stop (process-crash stand-in).

    Never retried and never replanned: the point of injecting it is
    to prove the savepoint machinery restores the catalog.
    """


class QueryCancelledError(ExecutionError):
    """The query was cancelled cooperatively at a safepoint.

    ``reason`` records who pulled the plug: ``"client"`` (an explicit
    :meth:`~repro.engine.cancel.CancelToken.cancel` call), ``"deadline"``
    (the token's deadline passed) or ``"shed"`` (the service gave up on
    it under overload).  Neither retryable nor fallback-eligible: the
    caller asked for the query to stop, so the runtime's only job is to
    unwind cleanly through the savepoint/finally discipline and
    surface this error after rollback.
    """

    def __init__(self, message: str, reason: str = "client"):
        super().__init__(message)
        self.reason = reason


class CatalogError(ReproError):
    """A catalog invariant or DBMS limit was violated."""


class StorageError(ReproError):
    """A durable-storage failure (page allocation, WAL, checkpoint,
    store lifecycle).  Not retryable: storage errors indicate either
    misuse (closed engine) or on-disk damage that retrying cannot
    heal."""


class PageCorruptError(StorageError):
    """A page failed verification (bad magic, wrong page id, length
    out of range, or checksum mismatch) -- the torn-write detector.
    The message always names the page id so operators can map it back
    to a table via the checkpoint manifest."""


class ServiceError(ReproError):
    """Base class for concurrent-query-service failures (sessions,
    admission control, scheduling)."""


class AdmissionRejected(ServiceError):
    """The scheduler refused to enqueue the query (queue full, or the
    session's in-flight cap reached).  Retryable by definition: the
    backlog drains as running queries finish."""

    retryable = True


class OverloadError(AdmissionRejected):
    """The scheduler shed the query: its predicted queue wait already
    exceeds the deadline it would run under, so admitting it could only
    burn a worker slot on an answer nobody will wait for.

    ``retry_after_seconds`` is the scheduler's estimate of when the
    backlog will have drained enough for a resubmission to fit its
    deadline -- a well-behaved client backs off at least that long.
    """

    def __init__(self, message: str, retry_after_seconds: float = 0.0):
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)


class CircuitBreakerOpen(AdmissionRejected):
    """The session's circuit breaker is open after repeated failures;
    submissions are refused until the cooldown elapses (then one trial
    query half-opens the breaker).  ``retry_after_seconds`` is the
    remaining cooldown."""

    def __init__(self, message: str, retry_after_seconds: float = 0.0):
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)


class SessionClosed(ServiceError):
    """The session was closed; no further queries can be submitted
    through it."""


class CrossThreadError(ServiceError):
    """A DB-API connection or cursor was used from a thread it is not
    bound to (see ``check_same_thread`` in :mod:`repro.api.dbapi`)."""


class TypeMismatchError(PlanningError):
    """An expression combines values of incompatible SQL types."""


class PercentageQueryError(ReproError):
    """A percentage query violates the paper's usage rules."""


class MaterializedViewError(PlanningError):
    """A materialized-view definition or operation is unsupported."""
