"""The persistent worker-process pool behind the process backend.

Why not ``concurrent.futures.ProcessPoolExecutor``?  Three reasons that
matter here:

* **Morsel-driven pull scheduling.**  All tasks of a dispatch go onto
  one shared queue and workers pull as they finish, so a skewed morsel
  does not strand the other workers behind a static assignment.
* **Epoch hygiene.**  Every dispatch is stamped with an epoch; results
  from an abandoned dispatch (a fault raised mid-collection, a stale
  worker finishing late) are recognized and dropped instead of being
  delivered to the wrong caller.  A stale task that references an
  already-unlinked shared-memory segment fails fast in the worker
  (``FileNotFoundError`` on attach) and that error is likewise
  dropped as stale.
* **Worker-death detection with pool reset.**  Collection polls the
  result queue with a timeout and checks worker liveness; a vanished
  worker raises :class:`~repro.errors.WorkerCrashError` (retryable --
  the resilient plan runner treats it like any transient fault) and
  the pool rebuilds itself for the next dispatch.

Fork discipline mirrors the operator thread pool
(:mod:`repro.engine.morsels`): the pool is lazily created, keyed by
pid so a forked child never inherits a handle to its parent's queues,
``os.register_at_fork`` drops the child's inherited state, and an
``atexit`` hook shuts the pool down (sending one poison pill per
worker) at interpreter exit.

Workers are started via the ``fork`` context when available (the
engine's column buffers are already in the parent; fork makes worker
startup O(1) and shares the parent's shared-memory resource tracker).
The ``spawn`` fallback keeps the module importable everywhere.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing as mp
import os
import sys
import threading
import time
from typing import Any, Optional

from repro.engine import cancel
from repro.errors import WorkerCrashError

#: Upper bound on pool processes regardless of core count.
_POOL_MAX_WORKERS = 8

#: Seconds between liveness checks while waiting for results.
_POLL_SECONDS = 0.1


def process_pool_size() -> int:
    """Worker-process count for the shared pool: core count capped at
    :data:`_POOL_MAX_WORKERS`, floor 2 so the dispatch/collect protocol
    is exercised even on single-core hosts."""
    return max(2, min(_POOL_MAX_WORKERS, os.cpu_count() or 1))


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def worker_main(task_queue, result_queue) -> None:
    """Worker loop: pull ``(epoch, task_id, target, payload)`` tasks,
    resolve ``target`` (``"module:function"``) and run it.

    ``None`` is the shutdown pill.  Any exception -- including
    ``FileNotFoundError`` from attaching a stale, already-unlinked
    segment -- is shipped back as an error result; the worker itself
    never dies on a task failure.
    """
    resolved: dict[str, Any] = {}
    while True:
        task = task_queue.get()
        if task is None:
            break
        epoch, task_id, target, payload = task
        try:
            fn = resolved.get(target)
            if fn is None:
                module_name, func_name = target.split(":")
                fn = getattr(importlib.import_module(module_name),
                             func_name)
                resolved[target] = fn
            result_queue.put((epoch, task_id, "ok", fn(payload)))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            try:
                result_queue.put((epoch, task_id, "error", exc))
            except Exception:
                # Unpicklable exception: degrade to its repr.
                result_queue.put((epoch, task_id, "error",
                                  WorkerCrashError(
                                      f"worker task failed with an "
                                      f"unpicklable error: {exc!r}")))


class ProcessPool:
    """A fixed-size pool of persistent worker processes."""

    def __init__(self, size: Optional[int] = None):
        self.size = size or process_pool_size()
        self._ctx = _mp_context()
        self._lock = threading.Lock()
        self._epoch = 0
        self._closed = False
        self._start()

    def _start(self) -> None:
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._workers = []
        for _ in range(self.size):
            worker = self._ctx.Process(
                target=worker_main, args=(self._tasks, self._results),
                daemon=True, name="repro-process-worker")
            worker.start()
            self._workers.append(worker)

    # ------------------------------------------------------------------
    def worker_pids(self) -> list[int]:
        return [w.pid for w in self._workers]

    def run_batch(self, target: str, payloads: list,
                  timeout: Optional[float] = None) -> list:
        """Dispatch one batch and collect all results, in task order.

        Raises the first task error (after the batch's epoch is
        retired, so stragglers from this batch are dropped later) or
        :class:`WorkerCrashError` when a worker process dies.  One
        batch at a time: dispatches are serialized on the pool lock --
        concurrent queries queue here, matching the thread pool's
        "parallelism budget is a host property" stance.
        """
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            for task_id, payload in enumerate(payloads):
                self._tasks.put((epoch, task_id, target, payload))
            return self._collect(epoch, len(payloads), timeout)

    def _collect(self, epoch: int, expected: int,
                 timeout: Optional[float]) -> list:
        results: dict[int, Any] = {}
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while len(results) < expected:
            try:
                got_epoch, task_id, status, payload = \
                    self._results.get(timeout=_POLL_SECONDS)
            except Exception:  # queue.Empty
                # Cancellation safepoint on the drain loop: a poll (not
                # a counted checkpoint -- iteration counts here are
                # timing noise).  Raising abandons this epoch; workers
                # stay healthy, and any straggler results are dropped
                # by the epoch check once the next dispatch arrives.
                cancel.poll("process-pool drain")
                self._check_alive()
                if deadline is not None \
                        and time.monotonic() > deadline:
                    self._reset()
                    raise WorkerCrashError(
                        f"process-pool batch timed out after "
                        f"{timeout}s ({len(results)}/{expected} "
                        f"results)")
                continue
            if got_epoch != epoch:
                continue  # stale result from an abandoned dispatch
            if status == "error":
                # Later results of this epoch are stale by definition:
                # the caller unwinds (and unlinks shared memory), so
                # leave them to be dropped by the epoch check above.
                raise payload
            results[task_id] = payload
        return [results[i] for i in range(expected)]

    def _check_alive(self) -> None:
        dead = [w for w in self._workers if not w.is_alive()]
        if dead:
            pids = [w.pid for w in dead]
            self._reset()
            raise WorkerCrashError(
                f"worker process(es) {pids} died mid-batch; the pool "
                f"was rebuilt -- retry the query")

    def _reset(self) -> None:
        """Rebuild queues and processes after a death or timeout.

        During interpreter shutdown (the atexit hook racing a
        ``WorkerCrashError`` unwind, or a daemon worker reaped before
        our teardown) restarting is both pointless and unsafe --
        ``Process.start()`` raises once Python is finalizing -- so a
        closed or finalizing pool tears down without rebuilding."""
        self._terminate()
        if self._closed or sys.is_finalizing():
            return
        self._start()

    def _terminate(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5)
        for queue in (self._tasks, self._results):
            queue.close()
            queue.cancel_join_thread()
        self._workers = []

    def shutdown(self) -> None:
        """Orderly stop: one poison pill per worker, then join.
        Idempotent -- a second call (atexit racing an explicit
        shutdown) finds no workers and closed queues and does
        nothing."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                if worker.is_alive():
                    self._tasks.put(None)
            for worker in self._workers:
                worker.join(timeout=5)
            self._terminate()


# ----------------------------------------------------------------------
# The process-wide shared pool (lazy, fork-safe, shut down at exit)
# ----------------------------------------------------------------------
_pool: ProcessPool | None = None
_pool_pid: int | None = None
_pool_lock = threading.Lock()


def process_pool() -> ProcessPool:
    """The process-wide worker pool (lazily created).

    Keyed by pid: a forked child that inherited the module state sees
    a pid mismatch and builds its own pool instead of writing into its
    parent's queues.
    """
    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            _pool = ProcessPool()
            _pool_pid = os.getpid()
        return _pool


def shutdown_process_pool() -> None:
    """Tear down the shared pool (tests, atexit; a fresh one is
    created on next use)."""
    global _pool, _pool_pid
    with _pool_lock:
        pool, _pool = _pool, None
        _pool_pid = None
    if pool is not None:
        pool.shutdown()


def _drop_inherited_pool() -> None:
    # After fork the child holds its parent's queue objects; using
    # (or shutting down) them would corrupt the parent's pool, so the
    # child just forgets the handle and re-creates lazily.
    global _pool, _pool_pid
    _pool = None
    _pool_pid = None


os.register_at_fork(after_in_child=_drop_inherited_pool)
atexit.register(shutdown_process_pool)
