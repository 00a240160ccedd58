"""A fixed reference kernel that tells how fast the host is right now.

The sandbox this benchmark runs in drifts: the same cycle takes 10-20%
longer or shorter from one minute to the next, all layers together,
which is wider than the regression bounds.  So the runner times this
kernel between cycles and expresses every duration at a *nominal* host
speed: ``measured seconds * NOMINAL_SECONDS / kernel seconds measured
next to it``.  A change to ``src/repro`` cannot move the kernel -- it
calls nothing of the program -- so a ratio between two commits is
untouched by the scaling, and a slow minute of the host no longer
reads as a regression.

The kernel blends the three kinds of work the program does: sorting
and grouping of integer keys, streaming arithmetic over arrays larger
than the cache, and byte-at-a-time interpreter work like the lexer's.
"""

from __future__ import annotations

import time

import numpy as np

#: What one kernel run takes on the host the baseline was recorded on.
#: It only fixes the unit: reported times read as that host's.
NOMINAL_SECONDS = 0.060

_TEXT = ("SELECT dweek, sum(CASE WHEN dept = 17 AND monthno = 3 THEN "
         "salesamt ELSE 0 END) / sum(salesamt) FROM sales GROUP BY dweek; "
         ) * 600


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20040613)
        self._keys = rng.integers(0, 1000, 200_000)
        self._weights = rng.random(200_000)
        self._a = rng.random(1_000_000)
        self._b = rng.random(1_000_000)
        self._mask = np.empty(1_000_000, dtype=bool)
        self._out = np.empty(1_000_000)
        self.sample()   # the first run pays for cold caches

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        started = time.perf_counter()
        order = np.argsort(self._keys, kind="stable")
        _, inverse = np.unique(self._keys, return_inverse=True)
        np.bincount(inverse, weights=self._weights)
        self._weights[order].cumsum()
        for _ in range(4):
            np.greater(self._a, 0.5, out=self._mask)
            np.multiply(self._a, self._b, out=self._out)
            np.add(self._out, self._b, out=self._out, where=self._mask)
        words = digits = 0
        inside = False
        for ch in _TEXT:
            if ch.isalpha() or ch == "_":
                if not inside:
                    words += 1
                    inside = True
            else:
                inside = False
                if ch.isdigit():
                    digits += 1
        return time.perf_counter() - started

    def factor(self, samples: int = 3) -> float:
        """The host's slowness now, relative to nominal: the median of
        a few kernel runs over ``NOMINAL_SECONDS``."""
        values = sorted(self.sample() for _ in range(samples))
        return values[len(values) // 2] / NOMINAL_SECONDS
