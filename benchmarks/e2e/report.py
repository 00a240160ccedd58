"""Whole-benchmark runs and the comparison of two of them.

``run_all`` runs every workload of BENCHMARK.json, each run in a fresh
interpreter, and writes one report: the shared ``repro-bench/v1``
header plus every run's result.  ``compare`` reads two such reports
and judges each end-to-end metric on each workload against the bound
BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Optional

import numpy

from repro.bench.harness import report_header

from .stats import median, spread

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh interpreter; its last stdout line is the
    result."""
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} (seed {seed}, trace {trace}) "
                           f"exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def run_all(seed: int, seconds: Optional[float], runs: int,
            out: str) -> dict:
    """``runs`` untraced runs (seeds ``seed``, ``seed + 1``, ...) and
    one traced run of every workload."""
    spec = load_spec()
    seconds = spec["run_seconds"] if seconds is None else seconds
    report = {**report_header("e2e"), "numpy": numpy.__version__,
              "seed": seed, "run_seconds": seconds, "claim": None,
              "runs": []}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, n in ((0, runs), (1, 1)):
            for i in range(n):
                result = run_one(workload, seed + i, seconds, trace)
                report["runs"].append({"workload": workload,
                                       "seed": seed + i, "trace": trace,
                                       **result})
                print(f"{workload} seed={seed + i} trace={trace} "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print_report(report, spec)
    return report


def _values(report: dict, workload: str, trace: int,
            metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in report["runs"]
            if run["workload"] == workload and run["trace"] == trace
            and metric in run["metrics"]]


def print_report(report: dict, spec: dict) -> None:
    """Every metric by name with its unit, one column per workload
    (medians over the report's runs)."""
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'metric':34s} {'unit':6s} "
          + " ".join(f"{w:>13s}" for w in workloads))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for metric in spec[section]:
            cells = []
            for workload in workloads:
                values = _values(report, workload, trace, metric["name"])
                cells.append(f"{median(values):13.4f}" if values
                             else f"{'-':>13s}")
            print(f"{metric['name']:34s} {metric['unit']:6s} "
                  + " ".join(cells))
    failed = sum(run["failed"] for run in report["runs"])
    attempted = sum(run["attempted"] for run in report["runs"])
    print(f"failed_ratio {failed}/{attempted}")


def compare(path_a: str, path_b: str) -> int:
    """Judge report B against report A.  Returns the number of
    regressed metrics (the exit status)."""
    spec = load_spec()
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    regressed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = _values(a, workload, 0, name)
            vb = _values(b, workload, 0, name)
            if not va or not vb:
                print(f"  {name:28s} missing")
                continue
            ma, mb = median(va), median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" \
                else (ma - mb) / ma
            widest = max((spread(v) for v in (va, vb) if len(v) >= 2),
                         default=0.0)
            if widest > bound:
                # Too noisy to call either way at this bound.
                label = "unresolved"
            elif worse > bound:
                label = "regressed"
                regressed += 1
            else:
                label = "ok"
            print(f"  {name:28s} {ma:14.4f} -> {mb:14.4f} "
                  f"{metric['unit']:6s} worse by {worse:+8.2%}  "
                  f"bound {bound:.0%}  spread {widest:.2%}  {label}")
        for report in (a, b):
            failed = sum(run["failed"] for run in report["runs"]
                         if run["workload"] == workload)
            if failed:
                print(f"  failed ops or checks: {failed}  regressed")
                regressed += 1
    return regressed
