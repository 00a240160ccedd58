"""Named sites: deterministic fault injection and cancel checks.

The engine exposes named *sites* (:data:`SITES`) -- the plan runner's
statement boundary, executor entry, the operators a real DBMS would
consider failure-atomic units, the disk page reads and the WAL kill
points.  Every instrumented point calls one hook,
:func:`cross`, which

1. counts the hit on the :class:`FaultInjector` active on this thread
   (if any) and raises a typed error exactly where its specs say so;
2. then, where :data:`SITES` marks the site cancellable, checks the
   ambient cancel token (:mod:`repro.engine.cancel`).

With neither an injector nor a token active it is two thread-local
reads -- cheap enough to leave in hot paths.

Determinism rules:

* explicit specs fire on *hit indexes* (the N-th time a site is
  reached), so ``FaultSpec("plan-step", at=3)`` reproduces forever;
* ``FaultSpec(site, error="cancel", at=i)`` is an armed cancellation:
  it cancels the ambient token (reason ``client``) at that hit, so the
  site's own token check raises -- once, through the token, charged to
  ``query_cancelled_total`` like any other cancellation;
* the optional seeded mode draws from ``random.Random(seed)`` per hit,
  so a chaos run is replayable from its seed alone;
* injectors are thread-local: concurrent sessions never see each
  other's faults.

Usage::

    from repro.engine import faults
    from repro.engine.faults import FaultInjector, FaultSpec

    injector = FaultInjector([FaultSpec("plan-step", error="transient",
                                        at=2)])
    with faults.active(injector):
        execute_plan(db, plan)          # 3rd statement raises once
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.engine import cancel
from repro.errors import (QueryCancelledError, ResourceExhausted,
                          SimulatedCrash, TransientError)
from repro.obs.metrics import global_registry

#: Every named site, in rough dataflow order, and whether the ambient
#: cancel token is checked there.  A fault can be armed at any site, a
#: cancellation only at a checked one.  The ``storage-*`` sites are the
#: WAL/buffer-pool kill points and are never checked: a cancel between
#: the durable WAL record and the publish would split a commit.
#: ``storage-page-write`` fires between the two halves of a page image
#: (a crash there tears the page), ``storage-wal-fsync`` just before a
#: commit record is appended (a crash there loses the mutation
#: cleanly), ``storage-commit`` after the record is durable but before
#: the in-memory publish (a crash there must be redone on reopen).
#: docs/robustness.md carries this table; keep it in sync.
SITES: dict[str, bool] = {
    "plan-step": False,          # before each statement of a plan
    "statement": True,           # executor entry, once per statement
    "scan": True,                # per FROM source, entering its scan
    "join-build": True,          # hash-join build side (engine/join.py)
    "group-by": True,            # factorize entry (engine/groupby.py)
    "pivot": True,               # pivot-family pass (engine/pivot.py)
    "page-fetch": True,          # per column page run (storage/engine.py)
    "projection": True,          # entering a SELECT's projection
    "dml": True,                 # entering an INSERT/UPDATE/DELETE's write
    "view-maintenance": True,    # per measure re-aggregated
    "storage-page-write": False,
    "storage-wal-fsync": False,
    "storage-commit": False,
}

#: Fault kinds and the exception class each surfaces as.  ``cancel``
#: raises nothing itself: it cancels the ambient token, whose check at
#: the same site raises.
ERROR_KINDS = {
    "transient": TransientError,
    "resource": ResourceExhausted,
    "crash": SimulatedCrash,
    "cancel": QueryCancelledError,
}


def _check_site(site: str) -> None:
    if site not in SITES:
        raise ValueError(f"unknown fault site {site!r}; "
                         f"known: {', '.join(SITES)}")


def _check_kind(error: str) -> None:
    if error not in ERROR_KINDS:
        raise ValueError(f"unknown fault kind {error!r}; "
                         f"known: {', '.join(ERROR_KINDS)}")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes:
        site: site name (see :data:`SITES`).
        error: ``"transient"``, ``"resource"``, ``"crash"`` or
            ``"cancel"`` (cancellable sites only).
        at: 0-based hit index of ``site`` at which the fault starts
            firing (hits are counted per injector, across retries).
        times: how many hits fire once armed; ``None`` means every
            hit from ``at`` onward (a permanent fault).
    """

    site: str
    error: str = "transient"
    at: int = 0
    times: Optional[int] = 1

    def __post_init__(self) -> None:
        _check_site(self.site)
        _check_kind(self.error)
        if self.error == "cancel" and not SITES[self.site]:
            raise ValueError(f"site {self.site!r} does not check the "
                             f"cancel token; a cancel cannot fire there")


@dataclass
class FaultInjector:
    """A registry of planned faults plus optional seeded chaos.

    Attributes:
        specs: explicit faults (deterministic by hit index).
        seed/rate/chaos_sites/chaos_error: when ``rate > 0``, every
            hit of a chaos site additionally fires with probability
            ``rate`` drawn from ``random.Random(seed)`` -- still fully
            replayable from the seed.
        hits: ``{site: times crossed}`` -- what a sweep's probe reads
            to enumerate its shots.
    """

    specs: Sequence[FaultSpec] = ()
    seed: Optional[int] = None
    rate: float = 0.0
    chaos_sites: Sequence[str] = tuple(SITES)
    chaos_error: str = "transient"

    hits: dict = field(default_factory=dict)
    faults_raised: int = 0

    def __post_init__(self) -> None:
        self._fired = {spec: 0 for spec in self.specs}
        self._rng = random.Random(self.seed)
        for site in self.chaos_sites:
            _check_site(site)
        _check_kind(self.chaos_error)

    # ------------------------------------------------------------------
    def fire(self, site: str) -> None:
        """Record one hit of ``site``; inject whatever fault is due."""
        index = self.hits.get(site, 0)
        self.hits[site] = index + 1
        for spec in self.specs:
            if spec.site != site or index < spec.at:
                continue
            if spec.times is not None and self._fired[spec] >= spec.times:
                continue
            self._fired[spec] += 1
            self._inject(site, spec.error, f"fault at {site}#{index}")
            return
        if self.rate > 0.0 and site in self.chaos_sites \
                and self._rng.random() < self.rate:
            self._inject(site, self.chaos_error,
                         f"chaos fault at {site}#{index}")

    def _inject(self, site: str, error: str, where: str) -> None:
        self.faults_raised += 1
        # Injectors are per-test/per-sweep throwaways, so the durable
        # record of injected faults lives in the process-wide registry.
        global_registry().counter(
            "faults_injected_total",
            help="faults raised by the injection registry",
            site=site, error=error).inc()
        if error == "cancel":
            token = cancel.active_token()
            if token is not None:
                token.cancel("client")
            return
        raise ERROR_KINDS[error](f"injected {error} {where}")


# ----------------------------------------------------------------------
# Thread-local activation and the hook
# ----------------------------------------------------------------------
_local = threading.local()


def current() -> Optional[FaultInjector]:
    """The injector active on this thread, if any."""
    return getattr(_local, "injector", None)


@contextmanager
def active(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Activate ``injector`` for the current thread."""
    previous = current()
    _local.injector = injector
    try:
        yield injector
    finally:
        _local.injector = previous


def cross(site: str) -> None:
    """The hook every instrumented point calls: count a hit of ``site``
    on the active injector (injecting any fault due there), then, if
    the site is cancellable, check the ambient cancel token.  Without
    an injector or a token it only reads two thread-locals, so
    operators call it unconditionally."""
    injector = getattr(_local, "injector", None)
    if injector is not None:
        injector.fire(site)
    if SITES[site]:
        cancel.poll(site)
