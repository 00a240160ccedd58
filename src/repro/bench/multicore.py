"""Multicore benchmark: the process backend versus thread and serial
execution on one compute-heavy grouped aggregation.

Written to ``BENCH_multicore.json`` by ``python -m repro.bench --suite
multicore``.  One query -- six aggregates over a three-column grouping
of the ``sales`` fact table -- is swept over 1/2/4/8 workers on both
parallel backends, every run asserted bit-identical to the serial
baseline.

Both backends run the same group-aligned morsels; only the dispatcher
differs.  Honesty note: the thread backend's kernels only overlap
inside numpy's GIL-released sections, so its scaling ceiling is low by
construction; the process backend is the one that can use real cores.
Both are bounded by ``os.cpu_count()``.  On hosts with fewer than 4
cores the speedup target is unreachable, so the suite records
``cpu_count`` and instead certifies the fallback criteria: process-
backend overhead within 10% of serial, and bit-identical results at
every degree (the same shape BENCH_concurrency.json uses).
"""

from __future__ import annotations

import os
import time

from repro.api.database import Database
from repro.engine.executor import ExecutorOptions

#: The measured statement: enough aggregate work per row that kernel
#: compute dominates dispatch/merge overhead.
QUERY = ("SELECT dweek, monthno, dept, sum(salesamt), avg(salesamt), "
         "var(salesamt), count(*), min(salesamt), max(salesamt) "
         "FROM sales GROUP BY dweek, monthno, dept")


def _time_runs(db: Database, repeats: int) -> list[float]:
    runs = []
    for _ in range(repeats):
        started = time.perf_counter()
        db.query(QUERY)
        runs.append(time.perf_counter() - started)
    return runs


def sweep_morsel_rows(n_rows: int, worker_counts: tuple[int, ...]) -> int:
    """The morsel target a worker sweep runs with: the default, lowered
    on small inputs until the widest degree still gets two morsels per
    worker -- otherwise a small ``--sales`` would not split and the
    bit-identity gate would compare serial with serial."""
    return max(1, min(ExecutorOptions.morsel_rows,
                      n_rows // (2 * max(worker_counts))))


def _sweep(db: Database, backend: str, baseline_rows: list,
           worker_counts: tuple[int, ...], repeats: int,
           serial_best: float, morsel_rows: int) -> list[dict]:
    entries = []
    for workers in worker_counts:
        db.configure(parallel_workers=workers, parallel_backend=backend,
                     morsel_rows=morsel_rows)
        rows = db.query(QUERY)
        runs = _time_runs(db, repeats)
        best = min(runs)
        entries.append({
            "backend": backend,
            "workers": workers,
            "best_seconds": round(best, 6),
            "runs": [round(r, 6) for r in runs],
            "speedup_vs_serial": round(serial_best / best, 4),
            "bit_identical_to_serial": rows == baseline_rows,
        })
    return entries


def run_multicore_benchmark(sales_n: int = 300_000,
                            repeats: int = 3,
                            worker_counts: tuple[int, ...] = (1, 2, 4, 8)
                            ) -> dict:
    """The full multicore suite; returns the JSON-ready report."""
    from repro.datagen import load_sales

    db = Database()
    load_sales(db, sales_n)

    db.configure(parallel_workers=1, parallel_backend="serial")
    baseline_rows = db.query(QUERY)
    serial_runs = _time_runs(db, repeats)
    serial_best = min(serial_runs)

    morsel_rows = sweep_morsel_rows(sales_n, worker_counts)
    process = _sweep(db, "process", baseline_rows, worker_counts,
                     repeats, serial_best, morsel_rows)
    threads = _sweep(db, "thread", baseline_rows, worker_counts,
                     repeats, serial_best, morsel_rows)
    db.configure(parallel_workers=1, parallel_backend="serial")

    registry = db.stats.registry.samples()
    shm_bytes = sum(v for k, v in registry.items()
                    if k.startswith("engine_shm_bytes_exported"))

    cpu_count = os.cpu_count() or 1
    multicore_host = cpu_count >= 4
    best_process = min(e["best_seconds"] for e in process)
    overhead_fraction = (best_process - serial_best) / serial_best
    speedup_at_4 = next((e["speedup_vs_serial"] for e in process
                         if e["workers"] == 4), None)
    report = {
        "workload": f"sales n={sales_n}; {QUERY}",
        "cpu_count": cpu_count,
        "repeats": repeats,
        "morsel_rows": morsel_rows,
        "note": "acceptance: >2x at 4 workers on hosts with >= 4 "
                "cores; on smaller hosts the suite certifies the "
                "fallback instead -- process-backend overhead within "
                "10% of serial and bit-identical results at every "
                "degree",
        "serial": {
            "best_seconds": round(serial_best, 6),
            "runs": [round(r, 6) for r in serial_runs],
            "rows": len(baseline_rows),
        },
        "process_backend": process,
        "thread_backend": threads,
        "shm_bytes_exported": int(shm_bytes),
        "summary": {
            "multicore_host": multicore_host,
            "process_speedup_at_4_workers": speedup_at_4,
            "speedup_target_met": (
                bool(speedup_at_4 and speedup_at_4 > 2.0)
                if multicore_host else None),
            "best_process_seconds": round(best_process, 6),
            "process_overhead_fraction": round(overhead_fraction, 4),
            "process_overhead_within_10pct":
                overhead_fraction <= 0.10,
            "all_results_bit_identical": all(
                e["bit_identical_to_serial"]
                for e in process + threads),
        },
    }
    return report
