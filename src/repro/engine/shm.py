"""Shared-memory column transport for the multiprocess backend.

A :class:`SharedColumnBlock` packs a set of named numpy arrays into
**one** ``multiprocessing.shared_memory`` segment (one ``/dev/shm``
entry per dispatch, not per column) and hands out a picklable
:class:`BlockDescriptor` that workers use to re-materialize zero-copy
views.  An :class:`AttachedBlock` is the worker-side handle.

Safety rules (documented in docs/parallelism.md and enforced here):

* **The exporting process owns the segment.**  Workers attach, read,
  and close; only the exporter unlinks.  Export sites must wrap the
  dispatch in ``try/finally: block.close()`` so the segment is
  unlinked on *every* exit path -- normal completion, injected faults,
  worker death, stale epochs.
* **Views before close.**  numpy views pin the underlying buffer;
  both sides drop their views before closing (``AttachedBlock.close``
  does this for workers; the exporter's arrays are copies *into* the
  segment, so the parent holds no views after export).
* **A registry of live segments.**  Every exported segment is tracked
  in a module-level registry until unlinked; :func:`live_segment_names`
  is the leak oracle the tests, the fuzzer and the pytest guard
  assert against, and an ``atexit`` sweep unlinks anything that
  survived to interpreter shutdown (belt and braces on top of the
  resource tracker).

Worker processes are forked, so they share the parent's resource
tracker; the tracker is the crash safety net (it unlinks segments if
the *exporting* process dies hard), while the try/finally discipline
plus the atexit sweep handle every orderly path.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

#: Exported segment names carry this prefix; the leak guard and the
#: atexit sweep only ever touch names we created.
_SEGMENT_PREFIX = "repro_shm"

_seq = itertools.count()
_live_lock = threading.Lock()
_live: dict[str, shared_memory.SharedMemory] = {}


def _next_segment_name() -> str:
    return f"{_SEGMENT_PREFIX}_{os.getpid()}_{next(_seq)}"


def live_segment_names() -> list[str]:
    """Names of segments this process exported and has not unlinked --
    the leak oracle: empty means no shared memory is outstanding."""
    with _live_lock:
        return sorted(_live)


def force_unlink_all() -> int:
    """Unlink every live segment (test cleanup after a detected leak;
    the atexit sweep).  Returns how many were reclaimed."""
    with _live_lock:
        stranded = list(_live.items())
        _live.clear()
    for _, segment in stranded:
        _close_segment(segment, unlink=True)
    return len(stranded)


def _close_segment(segment: shared_memory.SharedMemory,
                   unlink: bool) -> None:
    try:
        segment.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


atexit.register(force_unlink_all)


@dataclass(frozen=True)
class _ArraySpec:
    """Where one array lives inside the block's segment."""

    offset: int
    dtype: str
    length: int


@dataclass(frozen=True)
class BlockDescriptor:
    """The picklable recipe for attaching to an exported block."""

    segment: str
    arrays: dict  # name -> _ArraySpec
    nbytes: int


class SharedColumnBlock:
    """Export named numpy arrays into one shared-memory segment.

    Build with :meth:`export`; the parent then dispatches
    ``block.descriptor`` to workers and calls :meth:`close` in a
    ``finally``.  Object-dtype (VARCHAR) arrays are rejected -- the
    eligibility rules in :mod:`repro.engine.morsels` route those to
    dictionary codes or to inline evaluation instead.
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 descriptor: BlockDescriptor):
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self.descriptor = descriptor

    @classmethod
    def export(cls, arrays: dict) -> "SharedColumnBlock":
        """Copy ``{name: ndarray}`` into a fresh shared segment."""
        specs: dict[str, _ArraySpec] = {}
        offset = 0
        for name, array in arrays.items():
            if array.dtype == object:
                raise TypeError(
                    f"array {name!r} has object dtype; object arrays "
                    f"cannot cross a shared-memory boundary")
            array = np.ascontiguousarray(array)
            specs[name] = _ArraySpec(offset=offset,
                                     dtype=array.dtype.str,
                                     length=len(array))
            offset += array.nbytes
        # A zero-byte SharedMemory raises; one spare byte keeps the
        # empty-block edge case (all arrays empty) alive.
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, offset),
            name=_next_segment_name())
        with _live_lock:
            _live[segment.name] = segment
        for name, array in arrays.items():
            spec = specs[name]
            view = np.ndarray(spec.length, dtype=np.dtype(spec.dtype),
                              buffer=segment.buf, offset=spec.offset)
            view[:] = array
            del view
        descriptor = BlockDescriptor(segment=segment.name,
                                     arrays=specs, nbytes=offset)
        return cls(segment, descriptor)

    @property
    def nbytes(self) -> int:
        return self.descriptor.nbytes

    @property
    def name(self) -> str:
        return self.descriptor.segment

    def close(self) -> None:
        """Close *and unlink* the segment (exporter-side teardown).
        Idempotent; always reachable via try/finally at export sites."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        with _live_lock:
            _live.pop(segment.name, None)
        _close_segment(segment, unlink=True)

    def __enter__(self) -> "SharedColumnBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AttachedBlock:
    """Worker-side view of an exported block.

    Attach raises ``FileNotFoundError`` when the segment is already
    unlinked -- which is exactly what a stale-epoch task should do:
    fail fast instead of computing against freed data.
    """

    def __init__(self, descriptor: BlockDescriptor):
        self.descriptor = descriptor
        segment = shared_memory.SharedMemory(name=descriptor.segment)
        # CPython < 3.13 registers the segment with the resource
        # tracker on *attach* as well as on create (bpo-39959).  The
        # attach-side registration races the exporter's unlink-time
        # unregister and leaves the tracker believing a long-gone
        # segment leaked.  Only the exporter owns the lifetime, so
        # drop the attach-side registration immediately.
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - best-effort hygiene
            pass
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self._views: dict[str, np.ndarray] = {}

    def array(self, name: str) -> np.ndarray:
        """A zero-copy view of one exported array (do not mutate)."""
        if self._segment is None:
            raise ValueError("block is closed")
        view = self._views.get(name)
        if view is None:
            spec = self.descriptor.arrays[name]
            view = np.ndarray(spec.length, dtype=np.dtype(spec.dtype),
                              buffer=self._segment.buf,
                              offset=spec.offset)
            self._views[name] = view
        return view

    def close(self) -> None:
        """Drop every view, then close (never unlink -- the exporter
        owns the segment's lifetime).  Idempotent."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        self._views.clear()
        _close_segment(segment, unlink=False)

    def __enter__(self) -> "AttachedBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
