"""Logical cost accounting for executed statements.

The paper explains its timings in terms of logical work: how many scans
of ``F`` a strategy needs, how large the intermediates are, how much an
UPDATE writes versus an INSERT, and how many CASE terms are evaluated
per row.  :class:`StatsCollector` counts exactly those quantities so
benchmarks can report them next to wall-clock time.

Counters (all cumulative until :meth:`reset`):

* ``rows_scanned``   -- rows read by table scans.
* ``rows_written``   -- rows materialized into tables (INSERT/CREATE).
* ``rows_updated``   -- rows rewritten in place by UPDATE.
* ``rows_joined``    -- rows produced by join operators.
* ``case_evaluations`` -- WHEN-branch evaluations *charged* to CASE
  expressions: what the period DBMS would perform (the paper's ``N``
  comparisons-per-row cost), whichever way the engine computed them.
* ``statements``     -- SQL statements executed.
* ``index_lookups``  -- 0 by construction: no join probes an index
  (``CREATE INDEX`` is a catalog definition only).  Kept because the
  frozen benchmark reads it (``benchmarks/e2e/layers.py``).
* ``encode_cache_hits`` / ``encode_cache_misses`` -- reads of
  base-table columns' encoding memos that found the encoding already
  computed, or computed it (:func:`repro.engine.groupby.encode_column`).
  These are deliberately **not** part of :meth:`StatementStats.
  logical_io`: a memo saves wall-clock work, not logical I/O, so the
  paper's cost shapes are bit-identical whether it is warm or cold.
* ``encode_cache_evictions`` -- 0 by construction: a memo is never
  evicted, it dies with its column.  Kept because the frozen benchmark
  reads it (``benchmarks/e2e/layers.py``).
* ``storage_page_fetches`` / ``storage_pool_hits`` /
  ``storage_page_reads`` -- buffer-pool traffic charged by the disk
  backend's column reads (``hits + reads == fetches`` always).  Also
  excluded from :meth:`StatementStats.logical_io` so the paper's cost
  shapes are identical on the memory and disk backends.

Storage now lives in a :class:`~repro.obs.metrics.MetricsRegistry`:
each counter is the registry metric named by :data:`METRIC_NAMES`
(``rows_scanned`` -> ``engine_rows_scanned_total`` and so on), so one
Prometheus scrape of ``db.metrics`` exposes the same numbers this
class reports.  The public face is unchanged -- plain attribute reads
(``stats.rows_scanned``), :meth:`add`, :meth:`snapshot`,
:meth:`diff_since`, :meth:`record_statement`, :meth:`reset` -- and the
consistency contract survives the move: every multi-counter update or
read happens under the registry's single lock, so a snapshot is still
a consistent cut and concurrent scheduler workers still never drop
each other's charges.

Each :class:`~repro.api.database.Database` owns its own registry by
default, which is also the fix for the stats-reset bug: counters are
keyed by registry instance, not module state, so a reopened database
can no longer observe a previous instance's totals.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, fields
from typing import Optional

from repro.obs.metrics import MetricsRegistry

#: The integer counters StatsCollector maintains (everything
#: :meth:`StatsCollector.add` accepts).
COUNTER_NAMES = (
    "rows_scanned", "rows_written", "rows_updated", "rows_joined",
    "case_evaluations", "index_lookups", "encode_cache_hits",
    "encode_cache_misses", "encode_cache_evictions",
    "storage_page_fetches", "storage_pool_hits", "storage_page_reads",
    "statements",
)

#: Registry metric backing each counter.
METRIC_NAMES = {name: f"engine_{name}_total" for name in COUNTER_NAMES}

_HELP = {
    "rows_scanned": "rows read by table scans",
    "rows_written": "rows materialized into tables (INSERT/CREATE)",
    "rows_updated": "rows rewritten in place by UPDATE",
    "rows_joined": "rows produced by join operators",
    "case_evaluations": "WHEN-branch evaluations charged to CASE "
                        "expressions",
    "index_lookups": "always 0: no join probes an index",
    "encode_cache_hits": "base-table column encodings served by a memo",
    "encode_cache_misses": "base-table column encodings computed into "
                           "a memo",
    "encode_cache_evictions": "always 0: encoding memos are never "
                              "evicted",
    "storage_page_fetches": "pages requested from the buffer pool",
    "storage_pool_hits": "page fetches served from the buffer pool",
    "storage_page_reads": "page fetches that read from disk",
    "statements": "SQL statements executed",
}

#: StatementStats fields that are counters (everything but sql and
#: elapsed_seconds) -- the diffable set.
_SNAPSHOT_NAMES = tuple(name for name in COUNTER_NAMES
                        if name != "statements")

#: A StatementStats' counters as a tuple, in _SNAPSHOT_NAMES order.
_as_vector = operator.attrgetter(*_SNAPSHOT_NAMES)


@dataclass
class StatementStats:
    """Per-statement snapshot of the counters."""

    sql: str = ""
    rows_scanned: int = 0
    rows_written: int = 0
    rows_updated: int = 0
    rows_joined: int = 0
    case_evaluations: int = 0
    # Charged by nothing; benchmarks/e2e/layers.py still reads it.
    index_lookups: int = 0
    encode_cache_hits: int = 0
    encode_cache_misses: int = 0
    # Charged by nothing; benchmarks/e2e/layers.py still reads it.
    encode_cache_evictions: int = 0
    storage_page_fetches: int = 0
    storage_pool_hits: int = 0
    storage_page_reads: int = 0
    elapsed_seconds: float = 0.0

    def logical_io(self) -> int:
        """A single blended number: reads + writes (updates write twice,
        mirroring the read-modify-write the paper observed dominating)."""
        return (self.rows_scanned + self.rows_written
                + 2 * self.rows_updated)

    def counters(self) -> dict:
        """The counter fields as a plain dict (trace attributes)."""
        return {name: getattr(self, name) for name in _SNAPSHOT_NAMES}


class StatsCollector:
    """Accumulates engine counters; owned by the Database.

    Mutate only through :meth:`add` / :meth:`record_statement` /
    :meth:`reset` -- direct ``collector.counter += n`` is not safe
    under the worker pool (lost updates) and, now that counters live
    in the metrics registry, plain attribute *writes* are rejected
    outright.  Plain attribute reads remain supported for
    compatibility; use :meth:`snapshot` when a consistent
    multi-counter cut matters.

    The collector resolves its registry counters once, here, and
    holds them: a charge or a read is then one registry-lock
    acquisition over the held objects, with no name lookup.
    """

    def __init__(self, keep_history: bool = False,
                 registry: Optional[MetricsRegistry] = None):
        self.keep_history = keep_history
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.history: list[StatementStats] = []
        self._history_lock = threading.Lock()
        self._counters = {
            name: self.registry.counter(METRIC_NAMES[name],
                                        help=_HELP[name])
            for name in COUNTER_NAMES}
        #: The counters of a StatementStats, in its field order.
        self._vector = [self._counters[name] for name in _SNAPSHOT_NAMES]

    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> int:
        # Only reached when normal lookup fails, i.e. for the counter
        # names that used to be dataclass fields.
        if name in COUNTER_NAMES:
            return self._counters[name].value
        raise AttributeError(name)

    def __setattr__(self, name: str, value: object) -> None:
        if name in COUNTER_NAMES:
            raise AttributeError(
                f"stats counter {name!r} is registry-backed; "
                f"mutate through add()/reset()")
        super().__setattr__(name, value)

    # ------------------------------------------------------------------
    def add(self, **counts: int) -> None:
        """Atomically add ``counts`` to the named counters.

        All increments land under one registry-lock acquisition, so
        concurrent statements never drop each other's charges and a
        :meth:`snapshot` taken by another thread sees either all of a
        call's increments or none of them.
        """
        try:
            held = [self._counters[name] for name in counts]
        except KeyError as unknown:
            raise AttributeError(
                f"unknown stats counter {unknown.args[0]!r}") from None
        self.registry.add_held(held, counts.values())

    def reset(self) -> None:
        self.registry.zero(METRIC_NAMES.values())
        with self._history_lock:
            self.history.clear()

    def snapshot(self) -> StatementStats:
        """Current totals as a StatementStats value (consistent cut)."""
        return StatementStats("", *self.registry.read_held(self._vector))

    def diff_since(self, before: StatementStats) -> StatementStats:
        """Counters accumulated since ``before`` was snapshotted."""
        now = self.registry.read_held(self._vector)
        return StatementStats("", *map(operator.sub, now,
                                       _as_vector(before)))

    # ------------------------------------------------------------------
    def record_statement(self, stats: StatementStats) -> None:
        self._counters["statements"].inc()
        if self.keep_history:
            with self._history_lock:
                self.history.append(stats)


# snapshot() and diff_since() build StatementStats positionally: its
# fields must be sql, then the counters in _SNAPSHOT_NAMES order.
assert [f.name for f in fields(StatementStats)] == \
    ["sql", *_SNAPSHOT_NAMES, "elapsed_seconds"]
