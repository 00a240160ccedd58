"""Concurrency benchmark: the query service under multi-client load.

Two experiments over the paper's ``sales`` fact table, written to
``BENCH_concurrency.json`` by ``python -m repro.bench --suite
concurrency``:

* **read throughput** -- a fixed batch of read-only queries (plain
  GROUP BY aggregations plus Vpct/Hpct percentage queries) pushed
  through the service at 1/2/4/8 pool workers; reports queries/sec and
  the speedup over the single-worker run.
* **mixed latency** -- readers and writers interleaved through one
  4-worker service; per-class queue-wait and execution latency.

Honesty note: speedups are bounded by ``os.cpu_count()`` and by the
GIL (the engine's numpy kernels release it only inside vectorized
calls).  The report records ``cpu_count`` so a 1-core container's
~1.0x read-scaling is read as the environment's ceiling, not as a
regression; the correctness claim (every write applied) holds at any
core count.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.api.database import Database
from repro.service import QueryService


def _read_workload(n_queries: int) -> list[str]:
    """A deterministic round-robin mix of read queries."""
    mix = [
        "SELECT dept, sum(salesamt) FROM sales GROUP BY dept",
        "SELECT dweek, monthno, avg(salesamt) FROM sales "
        "GROUP BY dweek, monthno",
        "SELECT dweek, Vpct(salesamt) FROM sales GROUP BY dweek",
        "SELECT monthno, Hpct(salesamt BY dweek) FROM sales "
        "GROUP BY monthno",
        "SELECT store, count(*), max(salesamt) FROM sales "
        "GROUP BY store",
    ]
    return [mix[i % len(mix)] for i in range(n_queries)]


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _run_read_sweep(db: Database, worker_counts: tuple[int, ...],
                    n_queries: int) -> list[dict]:
    queries = _read_workload(n_queries)
    entries = []
    for workers in worker_counts:
        with QueryService(db, workers=workers,
                          max_queue_depth=n_queries,
                          session_inflight_cap=n_queries) as service:
            with service.create_session() as session:
                started = time.perf_counter()
                futures = [session.submit(sql) for sql in queries]
                reports = [f.result() for f in futures]
                elapsed = time.perf_counter() - started
        waits = [r.queue_wait_seconds for r in reports]
        entries.append({
            "workers": workers,
            "queries": len(reports),
            "elapsed_seconds": round(elapsed, 6),
            "queries_per_second": round(len(reports) / elapsed, 4),
            "mean_queue_wait_seconds": round(statistics.mean(waits), 6),
            "p95_queue_wait_seconds": round(_percentile(waits, 0.95), 6),
        })
    base = entries[0]["elapsed_seconds"]
    for entry in entries:
        entry["speedup_vs_1_worker"] = round(
            base / entry["elapsed_seconds"], 4)
    return entries


def _run_mixed_latency(db: Database, n_ops: int) -> dict:
    """Interleaved readers and writers through one 4-worker service.

    Every fourth operation is a single-row INSERT into a scratch table
    (exercising the writer lock and copy-on-write publication); the
    rest are aggregation reads over ``sales``.
    """
    db.drop_table("bench_scratch", if_exists=True)
    db.execute("CREATE TABLE bench_scratch (k INT, v REAL)")
    read_sql = ("SELECT dept, sum(salesamt) FROM sales GROUP BY dept")
    try:
        with QueryService(db, workers=4, max_queue_depth=n_ops,
                          session_inflight_cap=n_ops) as service:
            with service.create_session() as readers, \
                    service.create_session() as writers:
                futures = []
                for i in range(n_ops):
                    if i % 4 == 3:
                        futures.append(("write", writers.submit(
                            f"INSERT INTO bench_scratch VALUES "
                            f"({i}, {i * 0.5})")))
                    else:
                        futures.append(("read",
                                        readers.submit(read_sql)))
                reports = [(kind, f.result()) for kind, f in futures]
        by_kind: dict[str, dict[str, list[float]]] = {
            "read": {"wait": [], "run": []},
            "write": {"wait": [], "run": []}}
        for kind, report in reports:
            by_kind[kind]["wait"].append(report.queue_wait_seconds)
            by_kind[kind]["run"].append(report.elapsed_seconds)
        out = {"operations": n_ops, "workers": 4}
        for kind, samples in by_kind.items():
            out[kind] = {
                "count": len(samples["run"]),
                "mean_execute_seconds": round(
                    statistics.mean(samples["run"]), 6),
                "p95_execute_seconds": round(
                    _percentile(samples["run"], 0.95), 6),
                "mean_queue_wait_seconds": round(
                    statistics.mean(samples["wait"]), 6),
                "p95_queue_wait_seconds": round(
                    _percentile(samples["wait"], 0.95), 6),
            }
        out["scratch_rows"] = int(
            db.query("SELECT count(*) FROM bench_scratch")[0][0])
        out["all_writes_applied"] = (
            out["scratch_rows"] == out["write"]["count"])
        return out
    finally:
        db.drop_table("bench_scratch", if_exists=True)


def run_concurrency_benchmark(sales_n: int = 120_000,
                              read_queries: int = 20,
                              mixed_ops: int = 40,
                              worker_counts: tuple[int, ...] = (1, 2, 4, 8)
                              ) -> dict:
    """The full concurrency suite; returns the JSON-ready report."""
    from repro.datagen import load_sales

    db = Database()
    load_sales(db, sales_n)
    report = {
        "workload": f"sales n={sales_n}; service reads (plain + "
                    f"Vpct/Hpct), mixed read/write",
        "cpu_count": os.cpu_count(),
        "note": "speedups are bounded by cpu_count and the GIL; on a "
                "single-core host expect ~1.0x scaling -- the suite "
                "then certifies overhead and correctness, not "
                "parallel speedup",
        "read_throughput": _run_read_sweep(db, worker_counts,
                                           read_queries),
        "mixed_latency": _run_mixed_latency(db, mixed_ops),
    }
    reads = report["read_throughput"]
    report["summary"] = {
        "best_read_throughput_qps": max(
            e["queries_per_second"] for e in reads),
        "read_speedup_at_4_workers": next(
            (e["speedup_vs_1_worker"] for e in reads
             if e["workers"] == 4), None),
        "all_writes_applied": report["mixed_latency"][
            "all_writes_applied"],
    }
    return report
