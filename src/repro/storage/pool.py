"""An LRU buffer pool over the disk manager.

All page reads go through :meth:`BufferPool.fetch_many`; a hit serves
the cached payload and refreshes recency, a miss reads (and verifies)
the page from disk and may evict the least-recently-used resident
page.  Writes are write-through: the page goes to disk immediately and
the fresh payload is cached, so the pool never holds dirty pages and
eviction is always a plain drop -- crash recovery therefore depends
only on the write-ahead log, never on pool state.

Traffic is accounted twice, deliberately:

* the pool's own counters feed the metrics registry under the
  storage-level names (``storage_pool_hits_total``,
  ``storage_pool_misses_total``, ``storage_pool_evictions_total``,
  ``storage_bytes_read``, ``storage_bytes_written``);
* the per-statement stats ledger is charged by the
  :class:`~repro.storage.engine.StorageEngine` fetch hook, which
  attributes fetches to the statement that caused them (see
  ``storage_page_fetches`` / ``storage_pool_hits`` /
  ``storage_page_reads`` in :mod:`repro.engine.stats`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.storage.disk import DiskManager

#: Default pool capacity in pages (4 MiB at the default page size).
DEFAULT_POOL_PAGES = 1024

_METRIC_HELP = {
    "storage_pool_hits_total": "buffer-pool page fetches served from "
                               "memory",
    "storage_pool_misses_total": "buffer-pool page fetches that read "
                                 "from disk",
    "storage_pool_evictions_total": "pages evicted from the buffer "
                                    "pool (LRU)",
    "storage_bytes_read": "bytes read from the page file on pool "
                          "misses",
    "storage_bytes_written": "bytes written through the pool to the "
                             "page file",
}


class BufferPool:
    """Fixed-capacity LRU cache of page payloads."""

    def __init__(self, disk: DiskManager, capacity_pages: int,
                 registry: Optional[MetricsRegistry] = None):
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        self.disk = disk
        self.capacity = capacity_pages
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pages_written = 0
        self._registry = registry
        if registry is not None:
            for name, help_text in _METRIC_HELP.items():
                registry.counter(name, help=help_text)

    # ------------------------------------------------------------------
    def fetch_many(self, page_ids: Sequence[int]
                   ) -> tuple[list[bytes], int, int]:
        """Fetch payloads for ``page_ids`` in order.

        Returns ``(payloads, hits, misses)`` for the caller to charge
        to the stats ledger; the pool-level registry counters are
        updated here in one batch.
        """
        payloads: list[bytes] = []
        hits = misses = evicted = 0
        with self._lock:
            for page_id in page_ids:
                cached = self._pages.get(page_id)
                if cached is not None:
                    self._pages.move_to_end(page_id)
                    hits += 1
                else:
                    cached = self.disk.read_page(page_id)
                    misses += 1
                    self._pages[page_id] = cached
                    evicted += self._evict_over_capacity()
                payloads.append(cached)
            self.hits += hits
            self.misses += misses
            self.evictions += evicted
        self._record(hits=hits, misses=misses, evictions=evicted)
        return payloads, hits, misses

    def fetch(self, page_id: int) -> bytes:
        return self.fetch_many([page_id])[0][0]

    def write(self, page_id: int, payload: bytes) -> None:
        self.write_many([page_id], [payload])

    def write_many(self, page_ids: Sequence[int],
                   payloads: Sequence[bytes]) -> None:
        """Write-through, the mirror of :meth:`fetch_many`: each page
        hits disk now, in order, and the payloads are cached (not
        counted as pool traffic -- fetch counters measure read
        behavior only).  The pages written are cached under one lock
        and recorded in one registry batch, also when a write fails
        midway."""
        written = 0
        try:
            for page_id, payload in zip(page_ids, payloads):
                self.disk.write_page(page_id, payload)
                written += 1
        finally:
            evicted = 0
            with self._lock:
                for page_id, payload in zip(page_ids[:written],
                                            payloads):
                    self._pages[page_id] = payload
                    self._pages.move_to_end(page_id)
                    evicted += self._evict_over_capacity()
                self.evictions += evicted
                self.pages_written += written
            self._record(evictions=evicted, written=written)

    def _evict_over_capacity(self) -> int:
        evicted = 0
        while len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
            evicted += 1
        return evicted

    # ------------------------------------------------------------------
    def invalidate(self, page_ids: Sequence[int]) -> None:
        """Drop cached payloads (freed pages must not be served)."""
        with self._lock:
            for page_id in page_ids:
                self._pages.pop(page_id, None)

    def clear(self) -> None:
        with self._lock:
            self._pages.clear()

    def resident_pages(self) -> int:
        with self._lock:
            return len(self._pages)

    def info(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "pages": len(self._pages),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "pages_written": self.pages_written,
                "hit_rate": self.hits / total if total else 0.0,
            }

    # ------------------------------------------------------------------
    def _record(self, hits: int = 0, misses: int = 0,
                evictions: int = 0, written: int = 0) -> None:
        if self._registry is None:
            return
        counts = {}
        if hits:
            counts["storage_pool_hits_total"] = hits
        if misses:
            counts["storage_pool_misses_total"] = misses
            counts["storage_bytes_read"] = misses * self.disk.page_size
        if evictions:
            counts["storage_pool_evictions_total"] = evictions
        if written:
            counts["storage_bytes_written"] = \
                written * self.disk.page_size
        if counts:
            self._registry.increment(counts)
