"""A process-wide metrics registry: counters, gauges, histograms.

Design points:

* **One lock per registry.**  Every mutation and read goes through the
  owning registry's re-entrant lock, so a multi-counter
  :meth:`MetricsRegistry.increment` is atomic and
  :meth:`MetricsRegistry.read` is a consistent cut -- the property
  :mod:`repro.engine.stats` relied on with its single collector lock
  and still guarantees now that its counters live here.
* **Labels are part of the metric identity.**  ``registry.counter(
  "service_queue_wait_seconds", session="s1")`` and the same name with
  ``session="s2"`` are distinct time series, like Prometheus labels.
* **Fixed-bucket histograms.**  Buckets are cumulative upper bounds
  (``+Inf`` is implicit), chosen at creation and immutable -- no
  dynamic resizing to race against.
* **Text exposition.**  :meth:`MetricsRegistry.render_prometheus`
  emits the Prometheus text format; :func:`parse_prometheus` reads it
  back for the exporter round-trip test.

Per-:class:`~repro.api.database.Database` registries are the default
(each database's counters start at zero -- the stats-reset bug where a
reopened database carried the previous instance's totals is fixed by
construction).  Process-global consumers with no database in reach
(the fault registry, the fuzz runner) share :func:`global_registry`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

#: Default histogram buckets (seconds): tuned for statement latencies
#: from tens of microseconds to tens of seconds.
DEFAULT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _sample_name(name: str, labels: tuple,
                 extra: tuple = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return name
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return f"{name}{{{body}}}"


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple,
                 lock: threading.RLock):
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += int(n)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple,
                 lock: threading.RLock):
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed cumulative buckets plus sum and count."""

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts",
                 "_sum", "_count")

    def __init__(self, name: str, labels: tuple, buckets: tuple,
                 lock: threading.RLock):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._lock = lock
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for index, upper in enumerate(self.buckets):
                if value <= upper:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    def snapshot(self) -> dict:
        with self._lock:
            cumulative = []
            running = 0
            for count in self._counts:
                running += count
                cumulative.append(running)
            return {"buckets": dict(zip(self.buckets, cumulative[:-1])),
                    "inf": cumulative[-1], "sum": self._sum,
                    "count": self._count}

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class MetricsRegistry:
    """Get-or-create store of named, labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[tuple, object] = {}
        self._types: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict, factory,
             help: str = ""):
        key = (name, _label_key(labels))
        with self._lock:
            registered = self._types.get(name)
            if registered is None:
                self._types[name] = kind
                if help:
                    self._help[name] = help
            elif registered != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{registered}, not {kind}")
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[1], self._lock)
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, help: str = "",
                **labels: str) -> Counter:
        return self._get("counter", name, labels, Counter, help)

    def gauge(self, name: str, help: str = "",
              **labels: str) -> Gauge:
        return self._get("gauge", name, labels, Gauge, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self._get(
            "histogram", name, labels,
            lambda n, lk, lock: Histogram(n, lk, buckets, lock), help)

    # ------------------------------------------------------------------
    def increment(self, counts: dict, **labels: str) -> None:
        """Atomically add to several counters: a reader holding the
        registry lock sees all of these increments or none."""
        with self._lock:
            for name, n in counts.items():
                self.counter(name, **labels).inc(int(n))

    def value(self, name: str, **labels: str) -> int:
        return self.counter(name, **labels).value

    def add_held(self, counters: Iterable[Counter],
                 counts: Iterable[int]) -> None:
        """:meth:`increment` for counters the caller already holds:
        ``counts`` added pairwise, under one lock acquisition."""
        counts = [int(n) for n in counts]
        if counts and min(counts) < 0:
            raise ValueError("counters only go up")
        with self._lock:
            for counter, n in zip(counters, counts):
                counter._value += n

    def read_held(self, counters: Iterable[Counter]) -> list[int]:
        """:meth:`read` for counters the caller already holds: their
        values in order, as one consistent cut."""
        with self._lock:
            return [counter._value for counter in counters]

    def read(self, names: Iterable[str], **labels: str) -> dict:
        """Consistent multi-counter read (one lock acquisition)."""
        with self._lock:
            return {name: self.counter(name, **labels)._value
                    for name in names}

    def zero(self, names: Iterable[str], **labels: str) -> None:
        """Reset the named counters to zero (for ``stats.reset()``)."""
        with self._lock:
            for name in names:
                self.counter(name, **labels)._value = 0

    def reset(self) -> None:
        """Forget every metric (tests; the global registry between
        fuzz cases)."""
        with self._lock:
            self._metrics.clear()
            self._types.clear()
            self._help.clear()

    # ------------------------------------------------------------------
    def samples(self) -> dict:
        """Flattened ``name{labels} -> value`` map, histograms
        expanded into ``_bucket``/``_sum``/``_count`` series --
        exactly the samples :meth:`render_prometheus` exposes."""
        out: dict[str, float] = {}
        with self._lock:
            for (name, _), metric in sorted(
                    self._metrics.items(),
                    key=lambda item: (item[0][0], item[0][1])):
                if isinstance(metric, Histogram):
                    snap = metric.snapshot()
                    for upper, count in snap["buckets"].items():
                        out[_sample_name(
                            name + "_bucket", metric.labels,
                            (("le", f"{upper:g}"),))] = count
                    out[_sample_name(name + "_bucket", metric.labels,
                                     (("le", "+Inf"),))] = snap["inf"]
                    out[_sample_name(name + "_sum",
                                     metric.labels)] = snap["sum"]
                    out[_sample_name(name + "_count",
                                     metric.labels)] = snap["count"]
                else:
                    out[_sample_name(name, metric.labels)] = \
                        metric.value
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            by_name: dict[str, list] = {}
            for (name, _), metric in sorted(
                    self._metrics.items(),
                    key=lambda item: (item[0][0], item[0][1])):
                by_name.setdefault(name, []).append(metric)
            for name, metrics in by_name.items():
                help_text = self._help.get(name)
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {self._types[name]}")
                for metric in metrics:
                    if isinstance(metric, Histogram):
                        snap = metric.snapshot()
                        for upper, count in snap["buckets"].items():
                            lines.append(
                                f"{_sample_name(name + '_bucket', metric.labels, (('le', f'{upper:g}'),))}"
                                f" {count}")
                        lines.append(
                            f"{_sample_name(name + '_bucket', metric.labels, (('le', '+Inf'),))}"
                            f" {snap['inf']}")
                        lines.append(
                            f"{_sample_name(name + '_sum', metric.labels)}"
                            f" {_format_number(snap['sum'])}")
                        lines.append(
                            f"{_sample_name(name + '_count', metric.labels)}"
                            f" {snap['count']}")
                    else:
                        lines.append(
                            f"{_sample_name(name, metric.labels)}"
                            f" {_format_number(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_number(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def parse_prometheus(text: str) -> dict:
    """Parse text-exposition samples back into ``name{labels} ->
    float`` -- the inverse of :meth:`MetricsRegistry.samples` for the
    round-trip test."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


# ----------------------------------------------------------------------
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry for consumers that outlive any one
    database: the fault-injection registry and the fuzz runner."""
    return _GLOBAL
