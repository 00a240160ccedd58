"""A table-versioned cache of dictionary encodings.

Every generated percentage plan factorizes the *same* base-table key
columns over and over: a single ``Vpct(A BY city) GROUP BY state,
city`` plan encodes ``state``/``city`` for the Fk scan, the Fj scan and
the division join, and a benchmark sweep repeats that across queries
over an immutable fact table.  The :class:`EncodingCache` memoizes
:class:`~repro.engine.groupby.EncodedColumn` results keyed by
``(table, version, column)`` so the ``np.unique`` pass runs once per
base-table column per table version.

Keying discipline (what makes stale answers impossible):

* every :class:`~repro.engine.table.Table` instance carries a globally
  unique, monotonically increasing ``version``;
* only catalog-resident tables are *sealed*: sealing stamps each
  column's :class:`~repro.engine.column.ColumnData` with a
  ``cache_token`` of ``(table, version, column)``;
* every DML path (INSERT/UPDATE/DELETE/bulk load) swaps in a brand-new
  ``Table`` via the catalog, which seals the replacement under its new
  version -- old tokens are never minted again, so a cached entry can
  only ever be looked up by the exact immutable column content it was
  computed from.

The cache is bounded (LRU by payload bytes), thread-safe, and
deliberately invisible to the logical-I/O cost model: it never touches
``rows_scanned``/``rows_written``/``rows_updated``.  Hits, misses and
evictions are tracked separately (and mirrored into the bound
:class:`~repro.engine.stats.StatsCollector`) so EXPLAIN and the bench
harness can report them without perturbing the paper's Tables 4-6
cost shapes.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.engine import faults
from repro.obs import tracer as tracer_mod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.groupby import EncodedColumn
    from repro.engine.stats import StatsCollector

#: A cache token: (table name lower-cased, table version, column name
#: lower-cased).  Minted exclusively by ``Table.seal_cache_tokens``.
CacheToken = tuple[str, int, str]

#: Default byte budget (codes + dictionaries) for one database.
DEFAULT_ENCODING_CACHE_BYTES = 64 * 1024 * 1024


def _payload_bytes(encoded: "EncodedColumn") -> int:
    """Approximate memory held by one cached encoding."""
    total = encoded.codes.nbytes + encoded.uniques.nbytes
    if encoded.uniques.dtype == object:
        # Object arrays only store pointers; charge the string payloads
        # too (dictionaries are small -- one entry per distinct value).
        total += sum(sys.getsizeof(u) for u in encoded.uniques)
    return int(total)


class EncodingCache:
    """Bounded, thread-safe LRU of column dictionary encodings."""

    def __init__(self, max_bytes: int = DEFAULT_ENCODING_CACHE_BYTES):
        self.max_bytes = int(max_bytes)
        self.enabled = True
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheToken, tuple[EncodedColumn, int]]" \
            = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._stats: Optional["StatsCollector"] = None

    # ------------------------------------------------------------------
    def bind_stats(self, stats: "StatsCollector") -> None:
        """Mirror hit/miss/eviction counts into ``stats`` (separate
        counters; logical I/O is deliberately untouched)."""
        self._stats = stats

    # ------------------------------------------------------------------
    def get(self, token: CacheToken) -> Optional["EncodedColumn"]:
        """The cached encoding for ``token``, or None (counted as a
        miss -- callers only ask for tokens they are about to fill)."""
        if not self.enabled:
            return None
        faults.cross("encoding-cache")
        with self._lock:
            entry = self._entries.get(token)
            if entry is None:
                self.misses += 1
                if self._stats is not None:
                    self._stats.add(encode_cache_misses=1)
            else:
                self._entries.move_to_end(token)
                self.hits += 1
                if self._stats is not None:
                    self._stats.add(encode_cache_hits=1)
        tracer = tracer_mod.active_tracer()
        if tracer is not None and tracer.enabled:
            counter = ("encode_cache_misses" if entry is None
                       else "encode_cache_hits")
            tracer.event("encoding-cache", kind="charge",
                         table=str(token[0]), **{counter: 1})
        return entry[0] if entry is not None else None

    def put(self, token: CacheToken, encoded: "EncodedColumn") -> None:
        """Insert an encoding, evicting least-recently-used entries
        until the byte budget holds.  Oversized payloads are skipped."""
        if not self.enabled:
            return
        nbytes = _payload_bytes(encoded)
        if nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(token, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[token] = (encoded, nbytes)
            self._bytes += nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self._bytes -= evicted_bytes
                self.evictions += 1
                if self._stats is not None:
                    self._stats.add(encode_cache_evictions=1)

    # ------------------------------------------------------------------
    def invalidate_table(self, table_name: str) -> None:
        """Drop every entry of ``table_name`` (any version).

        Versioned tokens already make stale entries unreachable; this
        is memory hygiene so DML/DROP on a hot table frees its budget
        immediately instead of waiting for LRU churn.
        """
        lowered = table_name.lower()
        with self._lock:
            stale = [t for t in self._entries if t[0] == lowered]
            for token in stale:
                _, nbytes = self._entries.pop(token)
                self._bytes -= nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def payload_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def tokens(self) -> list[CacheToken]:
        """Current tokens, LRU-first (introspection/tests)."""
        with self._lock:
            return list(self._entries)

    def info(self) -> dict:
        """A snapshot for EXPLAIN and the bench harness."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "enabled": self.enabled,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EncodingCache entries={len(self._entries)} "
                f"bytes={self._bytes}/{self.max_bytes} "
                f"hits={self.hits} misses={self.misses}>")
