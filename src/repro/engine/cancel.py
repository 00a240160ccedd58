"""Cooperative cancellation: tokens and deadlines.

A :class:`CancelToken` carries "stop this query" state from whoever
owns the query (a client, a deadline, the overloaded service) to the
operators executing it.  Cancellation is *cooperative*, exactly like
the resource governor's budget checks: the token is checked at the
cancellable named sites (:data:`repro.engine.faults.SITES`, crossed
through :func:`repro.engine.faults.cross`) and at every governor row
charge, so a single vectorized numpy call is never interrupted but
every statement is checked many times.  A check that observes a
cancelled token raises :class:`~repro.errors.QueryCancelledError`,
which unwinds through the existing savepoint/finally discipline --
catalog rollback (and its WAL record), buffer-pool unpin, temp-table
drop -- so a cancelled query leaves nothing behind.

The deadline is the engine's only wall-clock limit.  The token reads
time through an injected :class:`~repro.obs.clock.Clock`, so deadline
tests run under :class:`~repro.obs.clock.ManualClock`.  An armed
cancellation at the N-th hit of a site is a fault
(``FaultSpec(site, error="cancel", at=N)``) that cancels the ambient
token -- the mechanism of the fuzz harness's ``--sweep cancel``.

Threading model: tokens are activated into a thread-local ambient slot
(:func:`activate`), mirroring :mod:`repro.engine.faults` and the
tracer.  The module-level :func:`poll` is a no-op when no token is
active, so ungoverned code paths (unit tests, recovery, cleanup) pay
one ``getattr`` per check.  A token raises **once**: after it has
fired, later checks on the unwind path (catalog rollback re-reading
pages, cleanup DROPs) pass through untouched, which is what keeps
cancellation leak-free.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import QueryCancelledError
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import MetricsRegistry, global_registry

#: Cancellation reasons carried on the error and the metric label.
REASONS = ("client", "deadline", "shed")


def check_deadline(seconds: Optional[float],
                   name: str = "deadline seconds") -> None:
    """Refuse a deadline that is not a positive number of seconds;
    ``None`` (no deadline) passes.  The test is ``not seconds > 0``
    because ``nan <= 0`` is false: NaN would slip past and never
    fire."""
    if seconds is not None and not seconds > 0:
        raise ValueError(f"{name} must be > 0")


class CancelToken:
    """One query's (or script's) cancellation state.

    Args:
        clock: time source for the deadline (default monotonic; tests
            inject :class:`~repro.obs.clock.ManualClock`).
        deadline: absolute instant on ``clock``'s timeline after which
            the token counts as cancelled with reason ``"deadline"``
            (``None`` = no deadline, caller-driven only).
        parent: an enclosing token (e.g. the script's) this one joins;
            the child is cancelled whenever the parent is, and
            :meth:`remaining` reports the tighter of the two budgets --
            that is how remaining time shrinks as a script progresses.
        registry: metrics registry charged with
            ``query_cancelled_total{reason}`` when the token fires
            (default: the process-wide registry).
    """

    def __init__(self, clock: Optional[Clock] = None,
                 deadline: Optional[float] = None,
                 parent: Optional["CancelToken"] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.clock = clock if clock is not None else MonotonicClock()
        self.deadline = deadline
        self.parent = parent
        self.registry = registry
        self._reason: Optional[str] = None
        self._fired = False
        self._lock = threading.Lock()

    @classmethod
    def with_timeout(cls, seconds: float,
                     clock: Optional[Clock] = None,
                     parent: Optional["CancelToken"] = None,
                     registry: Optional[MetricsRegistry] = None
                     ) -> "CancelToken":
        """A token whose deadline is ``seconds`` from now."""
        check_deadline(seconds)
        if clock is None:
            clock = parent.clock if parent is not None \
                else MonotonicClock()
        return cls(clock=clock, deadline=clock.now() + seconds,
                   parent=parent, registry=registry)

    # ------------------------------------------------------------------
    def cancel(self, reason: str = "client") -> None:
        """Mark the token cancelled (idempotent; the first reason
        wins).  The query stops at its next safepoint."""
        with self._lock:
            if self._reason is None:
                self._reason = reason

    def reason(self) -> Optional[str]:
        """The current cancellation reason, or ``None`` when live.
        Checks the explicit flag first, then the parent chain, then
        the deadline (one clock read, only when a deadline is set)."""
        if self._reason is not None:
            return self._reason
        if self.parent is not None:
            parent_reason = self.parent.reason()
            if parent_reason is not None:
                return parent_reason
        if self.deadline is not None \
                and self.clock.now() >= self.deadline:
            return "deadline"
        return None

    @property
    def cancelled(self) -> bool:
        return self.reason() is not None

    def remaining(self) -> Optional[float]:
        """Seconds until the effective deadline (the tightest along
        the parent chain), or ``None`` when no deadline applies.  May
        be negative once the deadline has passed."""
        remaining = None
        if self.deadline is not None:
            remaining = self.deadline - self.clock.now()
        if self.parent is not None:
            from_parent = self.parent.remaining()
            if from_parent is not None:
                remaining = from_parent if remaining is None \
                    else min(remaining, from_parent)
        return remaining

    # ------------------------------------------------------------------
    def poll(self, where: str = "") -> None:
        """Raise if cancelled -- the check every cancellable site and
        every governor row charge makes."""
        if self._fired:
            # The query is already unwinding; checks on the
            # rollback/cleanup path must not re-raise or the unwind
            # itself would leak.
            return
        reason = self.reason()
        if reason is None:
            return
        self._fired = True
        registry = self.registry if self.registry is not None \
            else global_registry()
        registry.counter(
            "query_cancelled_total",
            help="queries cancelled at a safepoint, by reason",
            reason=reason).inc()
        raise QueryCancelledError(
            f"query cancelled ({reason})"
            + (f" at {where}" if where else ""), reason=reason)


# ----------------------------------------------------------------------
# Ambient activation (thread-local, mirroring engine.faults)
# ----------------------------------------------------------------------
_local = threading.local()


def active_token() -> Optional[CancelToken]:
    """The token active on this thread, or ``None``."""
    return getattr(_local, "token", None)


@contextmanager
def activate(token: Optional[CancelToken]
             ) -> Iterator[Optional[CancelToken]]:
    """Install ``token`` as this thread's ambient token for the
    duration (``None`` deactivates, shielding e.g. cleanup work)."""
    previous = getattr(_local, "token", None)
    _local.token = token
    try:
        yield token
    finally:
        _local.token = previous


def poll(where: str = "") -> None:
    """Check the ambient token (no-op without one)."""
    token = getattr(_local, "token", None)
    if token is not None:
        token.poll(where)
