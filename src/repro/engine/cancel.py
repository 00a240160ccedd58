"""Cooperative cancellation: tokens, deadlines and safepoints.

A :class:`CancelToken` carries "stop this query" state from whoever
owns the query (a client, a deadline, the overloaded service) to the
operators executing it.  Cancellation is *cooperative*, exactly like
the resource governor's budget checks: operators call
:func:`checkpoint` at their boundaries (the enumerated
:data:`SAFEPOINTS`), so a single vectorized numpy call is never
interrupted but every statement crosses many safepoints.  A safepoint
that observes a cancelled token raises
:class:`~repro.errors.QueryCancelledError`, which unwinds through the
existing savepoint/finally discipline -- catalog rollback, WAL
restore, buffer-pool unpin, temp-table drop -- so a cancelled query
leaves nothing behind.

Determinism: the token reads time through an injected
:class:`~repro.obs.clock.Clock`, so deadline tests run under
:class:`~repro.obs.clock.ManualClock`.  Each token also counts its
safepoint hits (mirroring :class:`~repro.engine.faults.FaultInjector`)
and can be armed to cancel itself at the N-th hit of a named
safepoint (``cancel_at``) -- that is the mechanism the fuzz harness's
``--sweep cancel`` uses to fire a cancellation at every safepoint a
query crosses (:mod:`repro.fuzz.sweep`).

Threading model: tokens are activated into a thread-local ambient slot
(:func:`activate`), mirroring :mod:`repro.engine.faults` and the
tracer.  The module-level :func:`checkpoint`/:func:`poll` hooks are
no-ops when no token is active, so ungoverned code paths (unit tests,
recovery, cleanup) pay one ``getattr`` per safepoint.  A token raises
**once**: after it has fired, later safepoints on the unwind path
(catalog rollback re-reading pages, cleanup DROPs) pass through
untouched, which is what keeps cancellation leak-free.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import QueryCancelledError
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import MetricsRegistry, global_registry

#: Every named safepoint an engine query can cross, in rough dataflow
#: order.  The cancel sweep enumerates these; keep the docs/robustness
#: table in sync when adding one.
SAFEPOINTS = (
    "statement",          # executor entry, once per statement
    "scan",               # per FROM source, entering its scan
    "join-build",         # hash-join build side (engine/join.py)
    "group-by",           # factorize entry (engine/groupby.py)
    "pivot",              # pivot-family pass (engine/pivot.py)
    "page-fetch",         # per column page run (storage/engine.py)
    "projection",         # entering a SELECT's projection
    "dml",                # entering an INSERT/UPDATE/DELETE's write
    "view-maintenance",   # per measure re-aggregated (views/maintenance)
)

#: Cancellation reasons carried on the error and the metric label.
REASONS = ("client", "deadline", "shed")


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
        #: Safepoint hit counts, ``{site: times crossed}`` -- the
        #: cancel sweep's probe reads these to enumerate injection
        #: points, mirroring ``FaultInjector.hits``.
        self.hits: dict[str, int] = {}
        #: Arm the token to cancel itself at the ``index``-th crossing
        #: of ``site``: ``cancel_at = (site, index)``.
        self.cancel_at: Optional[tuple[str, int]] = None
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
        if seconds <= 0:
            raise ValueError("deadline seconds must be > 0")
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
    def check(self, safepoint: str) -> None:
        """Cross a named safepoint: count the hit, fire an armed
        ``cancel_at``, and raise if the token is cancelled."""
        index = self.hits.get(safepoint, 0)
        self.hits[safepoint] = index + 1
        if self.cancel_at is not None \
                and self.cancel_at == (safepoint, index):
            self.cancel("client")
        self._raise_if_cancelled(safepoint)

    def poll(self, context: str = "") -> None:
        """Raise if cancelled, without counting a safepoint hit.  Used
        where crossing counts would be timing-dependent (governor
        checkpoints)."""
        self._raise_if_cancelled(context)

    def _raise_if_cancelled(self, where: str) -> None:
        if self._fired:
            # The query is already unwinding; safepoints on the
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


def checkpoint(site: str) -> None:
    """Cross safepoint ``site`` on the ambient token (no-op without
    one) -- the hook operators call."""
    token = getattr(_local, "token", None)
    if token is not None:
        token.check(site)


def poll(context: str = "") -> None:
    """Non-counting cancellation check on the ambient token (no-op
    without one)."""
    token = getattr(_local, "token", None)
    if token is not None:
        token.poll(context)
