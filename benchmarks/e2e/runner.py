"""One run of one workload: set-up, timed passes, checks, metrics.

Load model: a closed loop with one client in one process on one
driver thread.  After set-up and an untimed warm-up cycle the client
repeats the workload's cycle of ops for ``--seconds`` seconds, always
finishing the cycle it is in.  End-to-end numbers come from an
untraced pass through the real entry points; with ``--trace 1`` a
second, staged pass on a traced database gives the per-layer numbers.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.engine import shm
from repro.errors import AdmissionRejected, OverloadError
from repro.storage.engine import live_store_paths

from . import layers
from .pipeline import Op, digest_of, run_op, run_op_staged, shape_of
from .reference import NOMINAL_SECONDS, Reference
from .spans import Recorder
from .stats import geomean, median
from .workloads import (OUT_DIR, WORKLOADS, Context, Tally, Workload,
                        teardown)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: No pass is summarised from fewer cycles than this.
MIN_CYCLES = 3
#: Share of a traced run's ``--seconds`` that goes to its untraced pass.
UNTRACED_SHARE = 0.4


@dataclass
class Pass:
    """What one timed pass observed.  Durations are kept as measured,
    cycle by cycle, next to each cycle's host factor; everything the
    pass reports is at nominal host speed (see reference.py)."""

    #: Per cycle: op name -> seconds as measured.
    cycles: list[dict[str, float]] = field(default_factory=list)
    #: Per cycle: the host's slowness while it ran.
    factors: list[float] = field(default_factory=list)
    kinds: dict[str, str] = field(default_factory=dict)
    ops: int = 0
    rejected: int = 0
    #: Logical I/O of the pass's first cycle (a count: it repeats).
    first_cycle_io: int = 0

    def ops_per_cycle(self) -> float:
        return self.ops / len(self.cycles)

    def cycle_seconds(self) -> list[float]:
        return [sum(cycle.values()) / factor
                for cycle, factor in zip(self.cycles, self.factors)]

    def latencies(self, kind: Optional[str] = None) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for cycle, factor in zip(self.cycles, self.factors):
            for name, seconds in cycle.items():
                if kind is None or self.kinds[name] == kind:
                    out[name].append(seconds / factor)
        return out

    def type_medians(self, kind: Optional[str] = None) -> dict[str, float]:
        return {name: median(values)
                for name, values in self.latencies(kind).items()}


def _result_ok(ctx: Context, workload: Workload, op: Op,
               value: Any) -> bool:
    """Does the result match the warm-up's?  Read-only workloads
    repeat bit for bit; beside writes only shapes can be pinned."""
    if op.kind == "maint":
        return True
    if op.kind == "write":
        return value == op.adds if op.adds else value > 0
    shape, digest = ctx.expected[op.name]
    if shape_of(value) != shape:
        return False
    return not workload.read_only or digest_of(value) == digest


def run_cycle(ctx: Context, workload: Workload, cycle: int, result: Pass,
              recorder: Optional[Recorder] = None,
              after_op: Optional[Callable[[Op, Any], None]] = None) -> None:
    """One cycle of ops, each timed and then checked.  The cycle's
    time is the sum of its ops' times: checking is not in it."""
    tally = ctx.tally
    before_io = ctx.db.stats.snapshot()
    seconds: dict[str, float] = {}
    for op in workload.cycle(ctx, cycle):
        result.kinds[op.name] = op.kind
        result.ops += 1
        started = time.perf_counter()
        try:
            if recorder is None:
                value = run_op(ctx, op)
            else:
                value = run_op_staged(ctx, op, recorder, cycle)
        except Exception as exc:  # an op that raises is a failed op
            if isinstance(exc, (AdmissionRejected, OverloadError)):
                result.rejected += 1
            tally.check(False, f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        seconds[op.name] = time.perf_counter() - started
        ctx.rows_added += op.adds
        tally.check(_result_ok(ctx, workload, op, value),
                    f"{op.name}: result differs from the warm-up's")
        if after_op is not None:
            after_op(op, value)
    result.cycles.append(seconds)
    if len(result.cycles) == 1:
        result.first_cycle_io = \
            ctx.db.stats.diff_since(before_io).logical_io()


def run_pass(ctx: Context, workload: Workload, reference: Reference,
             seconds: float, min_cycles: int,
             recorder: Optional[Recorder] = None,
             after_op: Optional[Callable[[Op, Any], None]] = None) -> Pass:
    """Cycles 1, 2, ... until ``seconds`` have passed (cycle 0 was the
    warm-up), and at least ``min_cycles`` of them.  The reference
    kernel runs before and after every cycle; a cycle's host factor is
    the mean of the two readings that bracket it."""
    result = Pass()
    gc.collect()
    deadline = time.perf_counter() + seconds
    reading = reference.sample()
    while len(result.cycles) < min_cycles \
            or time.perf_counter() < deadline:
        run_cycle(ctx, workload, len(result.cycles) + 1, result,
                  recorder, after_op)
        before, reading = reading, reference.sample()
        result.factors.append((before + reading) / 2 / NOMINAL_SECONDS)
    return result


def set_up(workload: Workload, seed: int, scale: float, tally: Tally,
           reference: Reference,
           recorder: Optional[Recorder] = None) -> tuple[Context, float]:
    """Generate, load, check the oracles and run the warm-up cycle,
    which fills the encoding cache and fixes the expected results.
    Returns the context and the seconds all of that took, at nominal
    host speed."""
    started = time.perf_counter()
    ctx = workload.build(workload, seed, scale, tally, recorder)
    try:
        workload.verify(ctx)
        for op in workload.cycle(ctx, 0):
            try:
                value = run_op(ctx, op)
            except Exception as exc:
                tally.check(False, f"warm-up {op.name}: "
                                   f"{type(exc).__name__}: {exc}")
                ctx.expected[op.name] = ((), "")
                continue
            tally.check(True, "")
            ctx.rows_added += op.adds
            ctx.expected[op.name] = (shape_of(value), digest_of(value))
        if recorder is not None:
            # The oracles and the warm-up ran through the staged
            # database too; their spans are not part of the measurement.
            recorder.spans.clear()
            ctx.db.tracer.reset()
    except BaseException:
        teardown(ctx)
        raise
    seconds = time.perf_counter() - started
    ctx.host_factor = reference.factor()
    return ctx, seconds / ctx.host_factor


def end_to_end(untraced: Pass,
               setup_seconds: float) -> dict[str, tuple[float, str]]:
    reads = untraced.type_medians("read")
    return {
        "setup_s": (setup_seconds, "s"),
        "throughput_qps": (untraced.ops_per_cycle()
                           / median(untraced.cycle_seconds()), "1/s"),
        "query_ms_geomean": (geomean(list(reads.values())) * 1e3, "ms"),
        "logical_io_rows_per_cycle": (untraced.first_cycle_io, "count"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, min_cycles: int = MIN_CYCLES,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """The whole run.  Returns the result object the CLI prints, plus
    -- for the selftest and for a reader -- ``expected`` (each op
    type's warm-up shape and digest), the untraced pass's
    ``logical_io`` and the ``failures``."""
    workload = WORKLOADS[name]
    tally = Tally()
    reference = Reference()
    setups = []
    # A traced run reports no setup_s, so it sets up once.
    repeats = 1 if trace else setup_repeats
    for i in range(repeats):
        ctx, setup_seconds = set_up(workload, seed, scale, tally, reference)
        setups.append(setup_seconds)
        if i < repeats - 1:
            teardown(ctx)
    try:
        share = UNTRACED_SHARE if trace else 1.0
        untraced = run_pass(ctx, workload, reference, seconds * share,
                            min_cycles)
        workload.finish(ctx)
    finally:
        teardown(ctx)
    expected = ctx.expected
    if not trace:
        metrics = end_to_end(untraced, median(setups))
    else:
        recorder = Recorder()
        ctx, _ = set_up(workload, seed, scale, tally, reference, recorder)
        try:
            probe = layers.Probe(ctx)
            traced = run_pass(ctx, workload, reference,
                              seconds * (1 - share), min_cycles, recorder,
                              probe.after_op)
            probe.close()
            workload.finish(ctx)
            metrics = layers.per_layer(ctx, untraced, traced, recorder,
                                       probe)
        finally:
            teardown(ctx)
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write_jsonl(os.path.join(OUT_DIR, f"trace-{name}.jsonl"))
    tally.check(not shm.live_segment_names(),
                "shared-memory segments are still live")
    tally.check(not live_store_paths(), "page stores are still open")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
        "expected": expected,
        "logical_io": untraced.first_cycle_io,
        "failures": tally.messages,
    }
