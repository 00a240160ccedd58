"""Deterministic fault injection for the execution runtime.

The engine exposes named *injection sites* -- statement boundaries and
the hot operators a real DBMS would consider failure-atomic units
(join build, pivot dispatch, group-by factorization, the encoding
cache).  A test or the crash-consistency sweep activates a
:class:`FaultInjector` for the current thread; every site then counts
its hits and raises a typed error exactly where the injector's specs
say so.  With no injector active the per-site :func:`fire` call is a
thread-local attribute read -- cheap enough to leave in hot paths.

Determinism rules:

* explicit specs fire on *hit indexes* (the N-th time a site is
  reached), so ``FaultSpec("statement", at=3)`` reproduces forever;
* the optional seeded mode draws from ``random.Random(seed)`` per hit,
  so a chaos run is replayable from its seed alone;
* injectors are thread-local: concurrent sessions never see each
  other's faults.

Usage::

    from repro.engine import faults
    from repro.engine.faults import FaultInjector, FaultSpec

    injector = FaultInjector([FaultSpec("statement", error="transient",
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

from repro.errors import (ResourceExhausted, SimulatedCrash,
                          TransientError)
from repro.obs.metrics import global_registry

#: Injection sites wired into the engine.  ``statement`` fires at every
#: statement boundary of a generated plan (see core.execute); the rest
#: fire inside the named operator.  The three ``storage-*`` sites are
#: the WAL/buffer-pool kill points: ``storage-page-write`` fires
#: between the two halves of a page image (a crash there tears the
#: page), ``storage-wal-fsync`` fires just before a commit record is
#: appended (a crash there loses the mutation cleanly), and
#: ``storage-commit`` fires after the record is durable but before the
#: in-memory publish (a crash there must be redone on reopen).
SITES = ("statement", "join-build", "group-by", "pivot", "encoding-cache",
         "storage-page-write", "storage-wal-fsync", "storage-commit")

#: Fault kinds and the exception class each raises.
ERROR_KINDS = {
    "transient": TransientError,
    "resource": ResourceExhausted,
    "crash": SimulatedCrash,
}


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes:
        site: injection-site name (see :data:`SITES`).
        error: ``"transient"``, ``"resource"`` or ``"crash"``.
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
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"known: {', '.join(SITES)}")
        if self.error not in ERROR_KINDS:
            raise ValueError(
                f"unknown fault kind {self.error!r}; "
                f"known: {', '.join(ERROR_KINDS)}")


@dataclass
class FaultInjector:
    """A registry of planned faults plus optional seeded chaos.

    Attributes:
        specs: explicit faults (deterministic by hit index).
        seed/rate/chaos_sites/chaos_error: when ``rate > 0``, every
            hit of a chaos site additionally fires with probability
            ``rate`` drawn from ``random.Random(seed)`` -- still fully
            replayable from the seed.
    """

    specs: Sequence[FaultSpec] = ()
    seed: Optional[int] = None
    rate: float = 0.0
    chaos_sites: Sequence[str] = SITES
    chaos_error: str = "transient"

    hits: dict = field(default_factory=dict)
    faults_raised: int = 0

    def __post_init__(self) -> None:
        self._fired = {spec: 0 for spec in self.specs}
        self._rng = random.Random(self.seed)
        if self.chaos_error not in ERROR_KINDS:
            raise ValueError(f"unknown fault kind "
                             f"{self.chaos_error!r}")

    # ------------------------------------------------------------------
    def fire(self, site: str) -> None:
        """Record one hit of ``site``; raise if a fault is due."""
        index = self.hits.get(site, 0)
        self.hits[site] = index + 1
        for spec in self.specs:
            if spec.site != site or index < spec.at:
                continue
            if spec.times is not None and self._fired[spec] >= spec.times:
                continue
            self._fired[spec] += 1
            self.faults_raised += 1
            _count_fault(site, spec.error)
            raise ERROR_KINDS[spec.error](
                f"injected {spec.error} fault at {site}#{index}")
        if self.rate > 0.0 and site in self.chaos_sites \
                and self._rng.random() < self.rate:
            self.faults_raised += 1
            _count_fault(site, self.chaos_error)
            raise ERROR_KINDS[self.chaos_error](
                f"injected {self.chaos_error} chaos fault at "
                f"{site}#{index}")


def _count_fault(site: str, error: str) -> None:
    # Injectors are per-test/per-sweep throwaways, so the durable
    # record of injected faults lives in the process-wide registry.
    global_registry().counter(
        "faults_injected_total",
        help="faults raised by the injection registry",
        site=site, error=error).inc()


# ----------------------------------------------------------------------
# Thread-local activation
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


def fire(site: str) -> None:
    """Hot-path hook: count a hit of ``site`` on the active injector.

    A no-op (one thread-local read) when no injector is active, so
    operators call it unconditionally.
    """
    injector = current()
    if injector is not None:
        injector.fire(site)
