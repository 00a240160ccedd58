"""Injectable time sources.

Every timing-bearing code path (statement elapsed, span start/end,
queue-wait histograms) reads time through a clock object instead of
calling :func:`time.perf_counter` directly.  That one indirection is
what makes the golden-trace tests possible: under a
:class:`ManualClock` every reading is a deterministic function of how
many readings came before it, so a span tree rendered with durations
is byte-stable across runs, machines, and CI.
"""

from __future__ import annotations

import threading
import time


class Clock:
    """Interface: a monotonically non-decreasing ``now()`` in seconds."""

    def now(self) -> float:
        raise NotImplementedError


class MonotonicClock(Clock):
    """Real time via :func:`time.perf_counter` (the default)."""

    __slots__ = ()

    def now(self) -> float:
        return time.perf_counter()


class ManualClock(Clock):
    """A deterministic clock for tests: each reading returns the
    current value, then advances it by ``step``.

    With the default step of 1ms, the Nth reading anywhere in the
    process observes exactly ``start + (N-1) * step`` -- so as long as
    the *sequence* of clock reads is deterministic (serial execution),
    every span duration is too.  Thread-safe so concurrent service
    sessions can share one instance without torn updates, though the
    read ordering (and thus the durations) is only deterministic when
    execution is serial.
    """

    __slots__ = ("_value", "_step", "_lock")

    def __init__(self, start: float = 0.0, step: float = 0.001):
        self._value = float(start)
        self._step = float(step)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            value = self._value
            self._value += self._step
            return value

    def advance(self, seconds: float) -> None:
        """Jump forward without consuming a reading."""
        with self._lock:
            self._value += float(seconds)
