"""Experiment runner: generate + execute a query under one strategy and
record wall time plus the engine's logical cost counters.

Timing covers plan generation *and* execution, matching how the paper
measured its Java generator end to end (generation includes the
discovery feedback queries for horizontal strategies).

Running this module directly benchmarks the dictionary-encoding cache
over the SIGMOD Table 4/5 workloads and writes a machine-readable
report (cold vs warm timings, hit rates, logical-I/O identity):

    PYTHONPATH=src python -m repro.bench \
        --out BENCH_encoding_cache.json
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional, Union

from repro.api.database import Database
from repro.bench.workloads import QuerySpec
from repro.core.execute import execute_plan, generate_plan
from repro.core.hagg import HorizontalAggStrategy
from repro.core.horizontal import HorizontalStrategy
from repro.core.vertical import VerticalStrategy
from repro.olap.windowgen import generate_olap_percentage_query

Strategy = Union[VerticalStrategy, HorizontalStrategy,
                 HorizontalAggStrategy]

#: Schema tag stamped on every suite report; bump when the shared
#: header layout changes.
REPORT_SCHEMA = "repro-bench/v1"


def git_revision() -> Optional[str]:
    """The checkout's current commit hash, or ``None`` when the bench
    runs outside a git checkout (e.g. from an sdist)."""
    import subprocess
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def report_header(suite: str) -> dict:
    """The shared header every suite report opens with, so reports
    from different machines and revisions are comparable."""
    import os
    import platform
    return {
        "schema": REPORT_SCHEMA,
        "suite": suite,
        "cpu_count": os.cpu_count(),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_report(report: dict, out: str, suite: str) -> dict:
    """Prepend the shared header and write ``out`` as pretty JSON.

    Suite keys win on collision (the concurrency report carries its
    own top-level ``cpu_count``; it is the same value either way)."""
    merged = {**report_header(suite), **report}
    with open(out, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    return merged


@dataclass
class ExperimentResult:
    """One measured experiment cell."""

    label: str
    strategy: str
    seconds: float
    logical_io: int
    case_evaluations: int
    statements: int
    result_rows: int
    result_columns: int
    encode_cache_hits: int = 0
    encode_cache_misses: int = 0

    def row(self) -> tuple:
        return (self.label, self.strategy, round(self.seconds, 4),
                self.logical_io, self.statements, self.result_rows)


def _measure(db: Database, label: str, strategy_name: str,
             run) -> ExperimentResult:
    before = db.stats.snapshot()
    statements_before = db.stats.statements
    started = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - started
    diff = db.stats.diff_since(before)
    return ExperimentResult(
        label=label, strategy=strategy_name, seconds=elapsed,
        logical_io=diff.logical_io(),
        case_evaluations=diff.case_evaluations,
        statements=db.stats.statements - statements_before,
        result_rows=result.n_rows,
        result_columns=result.schema.width(),
        encode_cache_hits=diff.encode_cache_hits,
        encode_cache_misses=diff.encode_cache_misses)


def run_vpct_experiment(db: Database, spec: QuerySpec,
                        strategy: Optional[VerticalStrategy] = None,
                        name: str = "") -> ExperimentResult:
    """One Table 4 cell: a Vpct query under one vertical strategy."""
    strategy = strategy or VerticalStrategy()

    def run():
        plan = generate_plan(db, spec.vpct_sql(), strategy)
        return execute_plan(db, plan).result

    return _measure(db, spec.label, name or strategy.describe(), run)


def run_hpct_experiment(db: Database, spec: QuerySpec,
                        strategy: Optional[HorizontalStrategy] = None,
                        name: str = "") -> ExperimentResult:
    """One Table 5 cell: an Hpct query under one CASE strategy."""
    strategy = strategy or HorizontalStrategy()

    def run():
        plan = generate_plan(db, spec.hpct_sql(), strategy)
        return execute_plan(db, plan).result

    return _measure(db, spec.label, name or strategy.describe(), run)


def run_hagg_experiment(db: Database, spec: QuerySpec,
                        strategy: Union[HorizontalStrategy,
                                        HorizontalAggStrategy,
                                        None] = None,
                        func: str = "sum",
                        name: str = "") -> ExperimentResult:
    """One DMKD Table 3 cell: a horizontal aggregation under a CASE or
    SPJ strategy."""
    strategy = strategy or HorizontalStrategy()

    def run():
        plan = generate_plan(db, spec.hagg_sql(func), strategy)
        return execute_plan(db, plan).result

    return _measure(db, spec.label, name or strategy.describe(), run)


def run_olap_experiment(db: Database, spec: QuerySpec,
                        name: str = "OLAP extensions"
                        ) -> ExperimentResult:
    """One Table 6 baseline cell: the window-function rendition."""

    def run():
        sql = generate_olap_percentage_query(spec.vpct_sql())
        return db.execute(sql)

    return _measure(db, spec.label, name, run)


# ----------------------------------------------------------------------
# Encoding-cache benchmark (cold vs warm over Tables 4/5 workloads)
# ----------------------------------------------------------------------
def run_encoding_cache_benchmark(employee_n: int = 100_000,
                                 sales_n: int = 300_000,
                                 warm_repeats: int = 3,
                                 include_widest: bool = False) -> dict:
    """Cold-vs-warm sweep of the dictionary-encoding cache.

    For every SIGMOD Table 4 (Vpct) and Table 5 (Hpct) query the cache
    is cleared, the query runs once cold, then ``warm_repeats`` more
    times warm (fact-table encodings served from the cache), and once
    with the cache disabled to check the logical-I/O cost model is
    bit-identical either way.  The widest Hpct row (``dept,store``,
    10,000 result columns) is skipped by default and recorded under
    ``"skipped"`` -- pass ``include_widest=True`` to run it.
    """
    from repro.datagen import load_employee, load_sales

    db = Database()
    load_employee(db, employee_n)
    load_sales(db, sales_n)
    cache = db.catalog.encoding_cache

    from repro.bench.workloads import SIGMOD_QUERIES

    queries: list[tuple[str, str, str, Strategy]] = []
    skipped: list[str] = []
    for spec in SIGMOD_QUERIES:
        queries.append((spec.label, "vpct", spec.vpct_sql(),
                        VerticalStrategy()))
        if "dept,store" in spec.label and not include_widest:
            skipped.append(f"{spec.label} (hpct)")
            continue
        queries.append((spec.label, "hpct", spec.hpct_sql(),
                        HorizontalStrategy(source="FV")))

    def run_once(sql: str, strategy: Strategy) -> tuple[float, int]:
        before = db.stats.snapshot()
        started = time.perf_counter()
        plan = generate_plan(db, sql, strategy)
        execute_plan(db, plan)
        elapsed = time.perf_counter() - started
        return elapsed, db.stats.diff_since(before).logical_io()

    entries = []
    for label, form, sql, strategy in queries:
        db.configure(use_encoding_cache=True)
        cache.clear()
        cache.reset_counters()
        cold_seconds, cold_io = run_once(sql, strategy)
        warm_runs = []
        for _ in range(warm_repeats):
            seconds, warm_io = run_once(sql, strategy)
            warm_runs.append(seconds)
            assert warm_io == cold_io
        warm_seconds = min(warm_runs)
        info = cache.info()

        db.configure(use_encoding_cache=False)
        off_seconds, off_io = run_once(sql, strategy)
        db.configure(use_encoding_cache=True)

        entries.append({
            "label": label,
            "form": form,
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "warm_runs": [round(s, 6) for s in warm_runs],
            "cache_off_seconds": round(off_seconds, 6),
            "speedup_warm_over_cold": round(
                cold_seconds / warm_seconds, 4) if warm_seconds else None,
            "hits": info["hits"],
            "misses": info["misses"],
            "hit_rate": round(info["hit_rate"], 4),
            "logical_io": cold_io,
            "logical_io_identical_cache_off": off_io == cold_io,
        })

    total_cold = sum(e["cold_seconds"] for e in entries)
    total_warm = sum(e["warm_seconds"] for e in entries)
    return {
        "workload": "SIGMOD Tables 4+5 (vpct + hpct per query spec)",
        "scales": {"employee_n": employee_n, "sales_n": sales_n},
        "warm_repeats": warm_repeats,
        "skipped": skipped,
        "queries": entries,
        "summary": {
            "total_cold_seconds": round(total_cold, 6),
            "total_warm_seconds": round(total_warm, 6),
            "speedup_warm_over_cold": round(total_cold / total_warm, 4)
            if total_warm else None,
            "all_logical_io_identical": all(
                e["logical_io_identical_cache_off"] for e in entries),
            "cache": cache.info(),
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Engine benchmark suites; each writes a "
                    "machine-readable JSON report.")
    parser.add_argument("--suite",
                        choices=("encoding-cache", "concurrency",
                                 "obs", "storage",
                                 "overload", "views", "cube"),
                        default="encoding-cache",
                        help="encoding-cache: cold/warm dictionary-"
                             "encoding sweep; concurrency: service "
                             "throughput and mixed read/write "
                             "latency; obs: tracing overhead on and "
                             "off; storage: "
                             "cold/warm buffer pool and memory-vs-disk "
                             "overhead on the page-based backend; "
                             "overload: open-loop arrival ramp past "
                             "service capacity with load shedding on "
                             "vs off, plus the deadline-token "
                             "bookkeeping overhead; views: "
                             "materialized percentage views -- delta "
                             "maintenance vs full recompute at a 1%% "
                             "update rate, and view-answered reads vs "
                             "cold Vpct evaluation; cube: shared-scan "
                             "grouping-sets evaluation vs the per-set "
                             "GROUP BY rewrite, with bit-identity "
                             "checks")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_<suite>.json)")
    parser.add_argument("--employee", type=int, default=100_000)
    parser.add_argument("--sales", type=int, default=300_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--full", action="store_true",
                        help="include the 10,000-column Hpct row "
                             "(encoding-cache suite)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.suite == "concurrency":
        from repro.bench.concurrency import run_concurrency_benchmark

        out = args.out or "BENCH_concurrency.json"
        # The concurrency workload is service-bound, not scan-bound;
        # cap the fact table so the default run stays interactive.
        report = run_concurrency_benchmark(
            sales_n=min(args.sales, 120_000))
        write_report(report, out, args.suite)
        summary = report["summary"]
        print(f"wrote {out}: cpu_count={report['cpu_count']}, "
              f"{summary['best_read_throughput_qps']} qps best, "
              f"read x{summary['read_speedup_at_4_workers']} at 4 "
              f"workers, all writes applied="
              f"{summary['all_writes_applied']}")
        return 0

    if args.suite == "overload":
        from repro.bench.overload import run_overload_benchmark

        out = args.out or "BENCH_overload.json"
        # The overload workload is admission-bound, not scan-bound;
        # cap the fact table so the default run stays interactive.
        report = run_overload_benchmark(
            sales_n=min(args.sales, 60_000), repeats=args.repeats)
        write_report(report, out, args.suite)
        summary = report["summary"]
        print(f"wrote {out}: goodput shed-on "
              f"{summary['goodput_shed_on_qps']} qps vs shed-off "
              f"{summary['goodput_shed_off_qps']} qps, shed rate "
              f"{summary['shed_rate']}, accepted p99 "
              f"{summary['accepted_p99_shed_on_seconds']}s vs "
              f"unloaded {summary['unloaded_p99_seconds']}s "
              f"(under 2x: {summary['accepted_p99_under_2x_unloaded']}"
              f"), deadline overhead "
              f"{summary['deadline_overhead_fraction'] * 100:+.3f}% "
              f"(under 5% bar: "
              f"{summary['deadline_overhead_within_5pct']})")
        return 0

    if args.suite == "views":
        from repro.bench.views import run_views_benchmark

        out = args.out or "BENCH_views.json"
        # The views workload is maintenance-bound, not scan-bound; cap
        # the fact table so the default run stays interactive.
        report = run_views_benchmark(
            sales_n=min(args.sales, 200_000), repeats=args.repeats)
        write_report(report, out, args.suite)
        summary = report["summary"]
        print(f"wrote {out}: delta maintenance "
              f"x{summary['delta_speedup_over_full']} vs full "
              f"recompute at 1% updates (>=5x bar: "
              f"{summary['delta_speedup_at_least_5x']}), view reads "
              f"x{summary['view_read_speedup_over_cold']} vs cold "
              f"Vpct (>=10x bar: "
              f"{summary['view_read_speedup_at_least_10x']}), "
              f"bit-identical={summary['view_bit_identical']}")
        return 0

    if args.suite == "cube":
        from repro.bench.cube import run_cube_benchmark

        out = args.out or "BENCH_cube.json"
        report = run_cube_benchmark(sales_n=args.sales,
                                    repeats=args.repeats)
        write_report(report, out, args.suite)
        summary = report["summary"]
        print(f"wrote {out}: shared-scan "
              f"x{summary['min_speedup_at_4plus_sets']} min at 4+ "
              f"sets (>=2x bar: "
              f"{summary['speedup_at_least_2x_at_4plus_sets']}), "
              f"best x{summary['best_speedup']}, "
              f"bit-identical={summary['all_bit_identical']}")
        return 0

    if args.suite == "storage":
        from repro.bench.storage import run_storage_benchmark

        out = args.out or "BENCH_storage.json"
        # The storage workload is I/O-shaped, not scan-bound; cap the
        # fact table so the default run stays interactive.
        report = run_storage_benchmark(
            sales_n=min(args.sales, 120_000), repeats=args.repeats)
        write_report(report, out, args.suite)
        summary = report["summary"]
        ab = report["disk_vs_memory"]
        mem_over = report["memory_overhead"]
        print(f"wrote {out}: cold {summary['cold_seconds']}s vs warm "
              f"{summary['warm_seconds']}s "
              f"(x{summary['cold_over_warm']}), warm hit rate "
              f"{summary['warm_hit_rate']}, disk-vs-memory "
              f"{ab['overhead_fraction'] * 100:+.1f}%, memory-backend "
              f"overhead estimated "
              f"{mem_over['estimated_overhead_fraction'] * 100:.3f}% "
              f"(under 5% bar: "
              f"{summary['memory_overhead_within_5pct']})")
        return 0

    if args.suite == "obs":
        from repro.bench.obs import run_obs_benchmark

        out = args.out or "BENCH_obs.json"
        # The obs workload is hook-bound, not scan-bound; cap the fact
        # table so the default run stays interactive.
        report = run_obs_benchmark(sales_n=min(args.sales, 60_000),
                                   repeats=args.repeats)
        write_report(report, out, args.suite)
        summary = report["summary"]
        print(f"wrote {out}: tracing on "
              f"+{summary['tracing_on_overhead_fraction'] * 100:.1f}%"
              f", tracing off estimated "
              f"+{summary['estimated_tracing_off_overhead_fraction'] * 100:.3f}%"
              f", under 5% bar="
              f"{summary['tracing_off_overhead_under_5pct']}")
        return 0

    out = args.out or "BENCH_encoding_cache.json"
    report = run_encoding_cache_benchmark(
        employee_n=args.employee, sales_n=args.sales,
        warm_repeats=args.repeats, include_widest=args.full)
    write_report(report, out, args.suite)
    summary = report["summary"]
    print(f"wrote {out}: "
          f"{summary['speedup_warm_over_cold']}x warm-over-cold, "
          f"logical I/O identical="
          f"{summary['all_logical_io_identical']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
