"""The morsel pipeline: grouped aggregation on every backend.

One entry point, :func:`run_grouped_aggregates`, computes a batch of
aggregates over one grouping.  When it fans out, the work units are the
group-aligned morsels of :func:`repro.engine.kernels.plan_morsels` and
the task body is :func:`run_morsel` -- the same on every backend.  Only
the *dispatcher* that runs the tasks differs::

    serial    inline, no morsels: one aggregate at a time
    thread    run_morsel on the operator thread pool, reading the
              in-process arrays directly (no shared memory)
    process   export a SharedColumnBlock, run_morsel in the forked
              worker pool through zero-copy views, unlink on every
              exit path

Admission is observable, not tuned: a batch fans out iff
``workers > 1``, the backend is not ``"serial"`` and the grouping
splits into at least two morsels of ``morsel_rows``.  Otherwise the
inline dispatcher runs it.

Bit-identity argument (stated once, for every backend): morsels are
contiguous ranges of the *stable* group-sorted row permutation, cut
only on group boundaries.  Every group therefore lands whole in
exactly one morsel with its rows in original relative order, each
kernel accumulates a group's addends in the serial order, and the
merge is a disjoint slice assignment ``out[g_lo:g_hi] = partial`` into
a buffer allocated from :func:`~repro.engine.kernels.result_sql_type`
(never from a partial's dtype, which ``np.bincount`` degrades to int64
for empty/all-NULL morsels) -- so sums (including float sums),
averages and variances match serial execution to the last bit, by
construction rather than by tolerance.

Eligibility: an aggregate ships to morsel tasks only when its inputs
are plain numeric buffers -- ``count(*)``/``count``/``count DISTINCT``
always (DISTINCT arguments are dictionary-encoded **on the
coordinator** with the ordinary encoding cache, so cache charges match
the serial path; tasks only see int64 codes), and
sum/avg/var/stdev/min/max for INTEGER/REAL arguments.  Everything else
(VARCHAR min/max, BOOLEAN arithmetic, unknown functions) is computed
inline with the serial implementation so results *and errors* are
identical on every backend.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from typing import Callable, Iterable, Optional

import numpy as np

from repro.engine import cancel, faults, kernels
from repro.engine.aggregates import compute_aggregate, count_star
from repro.engine.column import ColumnData
from repro.engine.encoding_cache import EncodingCache
from repro.engine.groupby import encode_column
from repro.engine.procpool import process_pool
from repro.engine.shm import AttachedBlock, SharedColumnBlock
from repro.engine.types import SQLType
from repro.errors import PlanningError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: Process-worker entry point, resolved by the pool via importlib.
_WORKER_TARGET = "repro.engine.morsels:execute_morsel_task"

#: SQL types whose buffers a morsel task reads as plain numeric arrays.
_SHIPPABLE = (SQLType.INTEGER, SQLType.REAL)


def _classify(func: str, arg: Optional[ColumnData],
              distinct: bool) -> Optional[str]:
    """The task-side kernel kind for one aggregate, or ``None`` when
    it must be computed inline (see the module docstring)."""
    if func == "count":
        if arg is None:
            return None if distinct else "count_star"
        return "count_distinct" if distinct else "count"
    if distinct:
        return None  # DISTINCT sum() etc. -> inline, identical error
    if func in ("sum", "avg", "var", "stdev", "min", "max"):
        if arg is not None and arg.sql_type in _SHIPPABLE:
            return "numeric"
    return None


def _compute_inline(func: str, arg: Optional[ColumnData], distinct: bool,
                    group_ids: np.ndarray, n_groups: int,
                    cache: Optional[EncodingCache]) -> ColumnData:
    if func == "count" and arg is None and not distinct:
        return count_star(group_ids, n_groups)
    if arg is None:
        raise PlanningError(f"{func}(*) is not valid; only count(*) "
                            f"may take *")
    return compute_aggregate(func, arg, distinct, group_ids, n_groups,
                             cache)


def run_grouped_aggregates(
        items: Iterable[tuple], group_ids: np.ndarray, n_groups: int,
        cache: Optional[EncodingCache] = None, *,
        backend: str, workers: int, morsel_rows: int,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        on_parallel: Optional[Callable[[int], None]] = None) -> dict:
    """Compute every ``(key, func, arg, distinct)`` in ``items`` over
    one grouping; returns ``{key: ColumnData}`` in item order.

    ``items`` may be a generator: the inline dispatcher consumes it one
    aggregate at a time, so a caller that evaluates argument
    expressions lazily never holds more than one argument column (the
    1,000-column Hpct statements depend on this).  A fan-out
    materializes the batch, ships the eligible aggregates as morsel
    tasks and computes the rest inline, so the caller never needs a
    fallback path and every argument is evaluated exactly once.
    """
    plan = None
    if workers > 1 and backend != "serial":
        plan = kernels.plan_morsels(group_ids, n_groups, morsel_rows)
    if plan is None:
        return {key: _compute_inline(func, arg, distinct, group_ids,
                                     n_groups, cache)
                for key, func, arg, distinct in items}

    # ------------------------------------------------------------------
    # Build the task inputs: the shared row permutation plus each
    # shipped aggregate's buffers (dictionary codes for DISTINCT,
    # encoded here on the coordinator so the cache is charged exactly
    # as in serial).
    # ------------------------------------------------------------------
    items = list(items)
    arrays: dict[str, np.ndarray] = {
        "__order": plan.order,
        "__gids": plan.sorted_group_ids.astype(np.int64, copy=False),
    }
    requests: list[tuple] = []
    merged: dict = {}
    for key, func, arg, distinct in items:
        kind = _classify(func, arg, distinct)
        if kind is None:
            continue
        arg_type = arg.sql_type if arg is not None else None
        cardinality = 0
        if kind == "count":
            arrays[f"n{key}"] = arg.nulls
        elif kind == "count_distinct":
            encoded = encode_column(arg, cache)
            arrays[f"c{key}"] = encoded.codes.astype(np.int64,
                                                      copy=False)
            cardinality = encoded.cardinality
        elif kind == "numeric":
            arrays[f"v{key}"] = arg.values
            arrays[f"n{key}"] = arg.nulls
        requests.append((key, func, kind, arg_type, cardinality))
        sql_type = kernels.result_sql_type(func, arg_type)
        merged[key] = ColumnData(
            sql_type, np.zeros(n_groups, dtype=sql_type.numpy_dtype),
            np.zeros(n_groups, dtype=bool))

    if requests:
        tasks = [(m.lo, m.hi, m.g_lo, m.g_hi, requests)
                 for m in plan.morsels]
        span_ctx = tracer.span(
            "morsel-dispatch", "parallel", backend=backend,
            morsels=plan.degree,
        ) if tracer is not None else nullcontext()
        with span_ctx as span:
            if backend == "thread":
                task_results, degree, shm_bytes = _dispatch_threads(
                    arrays, tasks, workers)
            else:
                task_results, degree, shm_bytes = _dispatch_processes(
                    arrays, tasks, metrics)
            if span is not None:
                span.attrs.update(workers=degree, shm_bytes=shm_bytes)
                for morsel, task in zip(plan.morsels, task_results):
                    tracer.event(
                        "morsel", "parallel", worker_pid=task["pid"],
                        worker_seconds=round(task["seconds"], 6),
                        rows=morsel.n_rows, groups=morsel.n_groups)
        if metrics is not None:
            metrics.counter(
                "engine_parallel_tasks_total",
                help="parallel tasks dispatched, by backend",
                backend=backend).inc(plan.degree)
        if on_parallel is not None:
            on_parallel(degree)
        # The merge: disjoint slice assignment over each morsel's
        # contiguous group range (see the module docstring).
        for morsel, task in zip(plan.morsels, task_results):
            for key, state in task["partials"]:
                out = merged[key]
                out.values[morsel.g_lo:morsel.g_hi] = state.values
                out.nulls[morsel.g_lo:morsel.g_hi] = state.nulls

    return {key: merged[key] if key in merged
            else _compute_inline(func, arg, distinct, group_ids,
                                 n_groups, cache)
            for key, func, arg, distinct in items}


# ----------------------------------------------------------------------
# The morsel task body (every parallel backend runs exactly this)
# ----------------------------------------------------------------------
def run_morsel(get: Callable[[str], np.ndarray], lo: int, hi: int,
               g_lo: int, g_hi: int, requests: list) -> dict:
    """Run every requested kernel over one morsel.

    ``get`` resolves a task-input name to its array -- a plain dict
    lookup on the thread backend, a shared-memory view in a process
    worker.  Rows are gathered through the shared ``__order``
    permutation so each group's addends keep their serial accumulation
    order; every gather materializes a private array, so no view of
    ``get``'s buffers outlives the call.
    """
    started = time.perf_counter()
    rows = get("__order")[lo:hi]
    local_gids = get("__gids")[lo:hi] - np.int64(g_lo)
    n_local = g_hi - g_lo
    partials: list[tuple] = []
    for key, func, kind, arg_type, cardinality in requests:
        if kind == "count_star":
            state = kernels.kernel_count_star(local_gids, n_local)
        elif kind == "count":
            state = kernels.kernel_count(get(f"n{key}")[rows],
                                         local_gids, n_local)
        elif kind == "count_distinct":
            state = kernels.kernel_count_distinct(
                get(f"c{key}")[rows], cardinality, local_gids, n_local)
        else:  # numeric
            values = get(f"v{key}")[rows]
            nulls = get(f"n{key}")[rows]
            if func == "sum":
                state = kernels.kernel_sum(values, nulls, arg_type,
                                           local_gids, n_local)
            elif func == "avg":
                state = kernels.kernel_avg(values, nulls, arg_type,
                                           local_gids, n_local)
            elif func in ("var", "stdev"):
                state = kernels.kernel_var_stdev(
                    func, values, nulls, arg_type, local_gids, n_local)
            else:  # min/max
                state = kernels.kernel_min_max(
                    func, values, nulls, arg_type, local_gids, n_local)
        partials.append((key, state))
    return {"pid": os.getpid(),
            "seconds": time.perf_counter() - started,
            "partials": partials}


# ----------------------------------------------------------------------
# Dispatchers.  Each returns (task results in task order, the degree
# actually used, shared-memory bytes exported).
# ----------------------------------------------------------------------
def _dispatch_threads(arrays: dict[str, np.ndarray], tasks: list[tuple],
                      workers: int) -> tuple[list, int, int]:
    """Up to ``workers`` runners on the operator pool pull morsels
    until none are left, so a skewed morsel does not strand the others
    behind a static assignment."""
    pending = deque(enumerate(tasks))
    results: list = [None] * len(tasks)

    def runner() -> None:
        while True:
            try:
                index, task = pending.popleft()
            except IndexError:
                return
            results[index] = run_morsel(arrays.__getitem__, *task)

    degree = min(workers, len(tasks), operator_pool_size())
    pool = operator_pool()
    futures = [pool.submit(runner) for _ in range(degree)]
    wait(futures)
    for future in futures:
        future.result()
    return results, degree, 0


def _dispatch_processes(arrays: dict[str, np.ndarray], tasks: list[tuple],
                        metrics: Optional[MetricsRegistry]
                        ) -> tuple[list, int, int]:
    pool = process_pool()
    with SharedColumnBlock.export(arrays) as block:
        # The fault site fires *after* export so an injected failure
        # exercises exactly the path a real dispatch error takes:
        # unwind through the block's exit and unlink the segment.  The
        # cancel safepoint sits on the same spot for the same reason.
        cancel.checkpoint("process-dispatch")
        faults.fire("process-worker")
        if metrics is not None:
            metrics.counter(
                "engine_shm_bytes_exported",
                help="bytes copied into shared-memory column blocks",
            ).inc(block.nbytes)
            metrics.gauge(
                "engine_worker_pool_saturation",
                help="tasks of the last process dispatch per pool "
                     "worker (>1 means queuing)",
            ).set(len(tasks) / pool.size)
        results = pool.run_batch(
            _WORKER_TARGET, [(block.descriptor, *task) for task in tasks])
    return results, min(len(tasks), pool.size), block.nbytes


def execute_morsel_task(payload: tuple) -> dict:
    """Process-worker entry: attach the exported block and run the
    morsel over its zero-copy views.

    Attaching to an already-unlinked segment raises
    ``FileNotFoundError`` -- the intended fail-fast for stale-epoch
    tasks -- which the pool ships back and the epoch check discards.
    """
    descriptor, *task = payload
    with AttachedBlock(descriptor) as block:
        return run_morsel(block.array, *task)


# ----------------------------------------------------------------------
# The operator thread pool.  Distinct from the service scheduler's
# query pool: queries submit morsel runners here, so a pool never
# waits on tasks queued behind itself.
# ----------------------------------------------------------------------
#: Upper bound on operator-pool threads regardless of core count
#: (morsel tasks are numpy-heavy; more threads than cores only adds
#: contention).
_POOL_MAX_WORKERS = 8

_pool: ThreadPoolExecutor | None = None
_pool_pid: int | None = None
_pool_lock = threading.Lock()


def operator_pool_size() -> int:
    """The worker count the shared operator pool runs (or would run)
    with: core count capped at :data:`_POOL_MAX_WORKERS`, floor 2 so
    morsel tasks overlap even on single-core hosts."""
    return max(2, min(_POOL_MAX_WORKERS, os.cpu_count() or 1))


def operator_pool() -> ThreadPoolExecutor:
    """The process-wide pool morsel runners run on (lazily created).

    One pool is shared by every Database/session in the process: the
    parallelism budget is a host property, not a per-connection one.
    Keyed by pid: a forked child (the process backend's workers fork)
    must not submit to an executor whose threads only exist in the
    parent, so it lazily builds its own.
    """
    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(
                max_workers=operator_pool_size(),
                thread_name_prefix="repro-operator")
            _pool_pid = os.getpid()
        return _pool


def shutdown_operator_pool() -> None:
    """Tear down the shared pool (atexit; a fresh one is created on
    next use)."""
    global _pool, _pool_pid
    with _pool_lock:
        pool, _pool = _pool, None
        _pool_pid = None
    if pool is not None:
        pool.shutdown(wait=True)


def _drop_inherited_pool() -> None:
    # Threads do not survive fork: the child sees the parent's executor
    # object but none of its workers.  Forget the handle (without
    # shutdown -- the queues belong to the parent) and re-create lazily.
    global _pool, _pool_pid
    _pool = None
    _pool_pid = None


os.register_at_fork(after_in_child=_drop_inherited_pool)
atexit.register(shutdown_operator_pool)
