"""Page allocation and raw page I/O over one data file.

The :class:`DiskManager` owns the single ``data.pages`` file of a
store: page ``i`` lives at byte offset ``i * page_size``.  It hands out
page ids (lowest free id first, so allocation is deterministic),
writes and reads whole verified pages, and exposes the fsync barrier
the write-ahead log's commit protocol builds on.

Writes deliberately pass through the ``storage-page-write`` fault
site *between the two halves of the page image*: an injected crash
there leaves a genuinely torn page on disk -- exactly what a power cut
mid-write produces -- which recovery must tolerate for uncommitted
pages and detect (via the checksum) for committed ones.
"""

from __future__ import annotations

import heapq
import os
import threading
from typing import Iterable

from repro.engine import faults
from repro.errors import PageCorruptError, StorageError
from repro.storage.pages import (DEFAULT_PAGE_SIZE, decode_page,
                                 encode_page, payload_capacity)


class DiskManager:
    """Allocates page ids and performs verified page I/O."""

    def __init__(self, path: str,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if page_size < 64:
            raise StorageError("page_size must be at least 64 bytes")
        self.path = path
        self.page_size = page_size
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self._lock = threading.Lock()
        #: One past the highest page id ever allocated.
        self.next_page_id = max(
            0, (os.fstat(self._fd).st_size + page_size - 1) // page_size)
        self._free: list[int] = []   # min-heap of reusable ids
        self._closed = False

    @property
    def payload_capacity(self) -> int:
        return payload_capacity(self.page_size)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, count: int = 1) -> list[int]:
        """``count`` fresh page ids, lowest reusable ids first."""
        with self._lock:
            ids = []
            for _ in range(count):
                if self._free:
                    ids.append(heapq.heappop(self._free))
                else:
                    ids.append(self.next_page_id)
                    self.next_page_id += 1
            return ids

    def free(self, page_ids: Iterable[int]) -> None:
        """Return pages to the free list for reuse."""
        with self._lock:
            known = set(self._free)
            for page_id in page_ids:
                if 0 <= page_id < self.next_page_id \
                        and page_id not in known:
                    heapq.heappush(self._free, page_id)
                    known.add(page_id)

    def free_page_ids(self) -> set[int]:
        with self._lock:
            return set(self._free)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def write_page(self, page_id: int, payload: bytes) -> None:
        """Write one page image; crosses the ``storage-page-write``
        site mid-image so an injected crash tears the page."""
        self._check_open()
        raw = encode_page(page_id, payload, self.page_size)
        offset = page_id * self.page_size
        half = len(raw) // 2
        os.pwrite(self._fd, raw[:half], offset)
        faults.cross("storage-page-write")
        os.pwrite(self._fd, raw[half:], offset + half)

    def read_page(self, page_id: int) -> bytes:
        """Read and verify one page, returning its payload."""
        self._check_open()
        raw = os.pread(self._fd, self.page_size,
                       page_id * self.page_size)
        if len(raw) < self.page_size:
            raise PageCorruptError(
                f"page {page_id} is torn: read {len(raw)} of "
                f"{self.page_size} bytes")
        return decode_page(page_id, raw, self.page_size)

    def sync(self) -> None:
        """fsync barrier: all prior page writes are durable after this
        returns."""
        self._check_open()
        os.fsync(self._fd)

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(
                f"disk manager for {self.path!r} is closed")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            os.close(self._fd)
