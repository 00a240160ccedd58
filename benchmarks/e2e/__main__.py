"""End-to-end benchmark of the paper's workloads.

  python -m benchmarks.e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
  python -m benchmarks.e2e [--runs R] [--out PATH]     all workloads
  python -m benchmarks.e2e --selftest
  python -m benchmarks.e2e --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

DEFAULT_SEED = 20040613


def pin_hash_seed() -> None:
    """Restart the interpreter with ``PYTHONHASHSEED=0`` unless it
    already runs that way.  The optimizer walks a *set* of BY columns
    and stops at the first high-cardinality one, so the order str
    hashing gives that set decides how many ``count(DISTINCT ..)``
    feedback scans a horizontal query costs: without a fixed hash seed
    ``logical_io_rows_per_cycle`` differs from process to process on
    identical inputs."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "benchmarks.e2e",
                                  *sys.argv[1:]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload and "
                        "print its result as one JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed section (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                        "from a staged, traced pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload when running all")
    parser.add_argument("--out", help="report path when running all "
                        "(default: benchmarks/e2e/out/report.json)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    try:
        from . import report, runner, selftest
    except ImportError as exc:
        # e.g. a directory that holds the benchmark but not src/repro
        print(f"cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2

    if args.compare:
        return 1 if report.compare(*args.compare) else 0
    if args.selftest:
        started = time.perf_counter()
        try:
            selftest.run()
        except selftest.SelfTestFailure as exc:
            print(f"selftest FAILED: {exc}", file=sys.stderr)
            return 1
        print(f"selftest ok in {time.perf_counter() - started:.1f} s")
        return 0
    if args.workload is None:
        out = args.out or os.path.join(runner.OUT_DIR, "report.json")
        result = report.run_all(args.seed, args.seconds, args.runs, out)
        return 0 if all(run["correct"] for run in result["runs"]) else 1
    if args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(runner.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None \
        else report.load_spec()["run_seconds"]
    result = runner.run_workload(args.workload, args.seed, seconds,
                                 bool(args.trace))
    for message in result.pop("failures"):
        print("FAILED:", message, file=sys.stderr)
    del result["expected"], result["logical_io"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
