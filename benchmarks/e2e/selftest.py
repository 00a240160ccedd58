"""``--selftest``: the benchmark checking itself, at reduced scale.

It checks the helpers on known inputs, the span recorder's invariants,
that what a run emits carries exactly the names and units
BENCHMARK.json promises, and that a seed determines the inputs.
"""

from __future__ import annotations

import json
import math
import os
import re

from . import stats
from .layers import PER_LAYER
from .report import load_spec
from .runner import run_workload
from .spans import Recorder, check_well_formed, children_of, self_time
from .workloads import OUT_DIR, WORKLOADS

#: Table sizes relative to the real runs.
SCALE = 0.01
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTestFailure(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestFailure(message)


def check_helpers() -> None:
    _require(stats.median([3, 1, 2]) == 2, "median")
    _require(stats.percentile([1, 2, 3, 4, 5], 50) == 3, "p50")
    _require(stats.percentile(list(range(1, 102)), 90) == 91, "p90")
    _require(stats.percentile([7], 99) == 7, "p99 of one value")
    _require(math.isclose(stats.geomean([1, 100]), 10), "geomean")
    _require(math.isclose(stats.geomean([2, 2, 2]), 2), "geomean")
    # quartiles of 1..11 are 3 and 9, the median 6
    _require(math.isclose(stats.spread(list(range(1, 12))), 1.0), "spread")


def check_span_rules() -> None:
    rec = Recorder()
    root = rec.add("op", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, parent=root)
    rec.add("b", 3.0, 6.0, parent=root)         # overlaps a: counts once
    rec.add("a1", 2.0, 3.0, parent=a)
    other = rec.add("op", 10.0, 11.0)
    _require(check_well_formed(rec.spans) == [], "a sound tree is rejected")
    _require(root["op"] != other["op"], "two trees share an op id")
    kids = children_of(rec.spans)
    _require(math.isclose(self_time(root, kids[root["id"]]), 5.0),
             "self time of overlapping children")
    _require(math.isclose(self_time(a, kids[a["id"]]), 2.0), "self time")
    rec.add("late", 5.0, 12.0, parent=root)
    _require(len(check_well_formed(rec.spans)) == 1,
             "a span outside its parent goes unnoticed")
    with rec.span("op") as outer:
        with rec.span("inner") as inner:
            pass
    _require(inner["parent"] == outer["id"] and inner["op"] == outer["op"],
             "a nested span is not its opener's child")


def check_emitted(spec: dict, result: dict, section: str) -> None:
    """The run's metrics are exactly the ones ``section`` of
    BENCHMARK.json names, units and all."""
    promised = {m["name"]: m["unit"] for m in spec[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    _require(emitted == promised,
             f"{section}: emitted {sorted(emitted.items())} but "
             f"BENCHMARK.json promises {sorted(promised.items())}")
    for name, metric in result["metrics"].items():
        _require(_NAME.fullmatch(name) is not None, f"bad name {name!r}")
        _require(_UNIT.fullmatch(metric["unit"]) is not None,
                 f"bad unit {metric['unit']!r}")
        _require(isinstance(metric["value"], (int, float))
                 and math.isfinite(metric["value"]),
                 f"{name} is not a finite number")
    _require(set(result) >= {"correct", "attempted", "failed", "metrics"},
             "result keys")
    _require(result["correct"] and result["failed"] == 0,
             f"failed checks: {result['failures']}")


def check_trace_file(workload: str) -> None:
    with open(os.path.join(OUT_DIR, f"trace-{workload}.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]
    _require(bool(spans), f"{workload}: no spans recorded")
    problems = check_well_formed(spans)
    _require(not problems, f"{workload}: {problems[:3]}")


def run(verbose=print) -> None:
    check_helpers()
    check_span_rules()
    verbose("helpers and span rules ok")
    spec = load_spec()
    _require({w["name"]: w["why"] for w in spec["workloads"]}
             == {w.name: w.why for w in WORKLOADS.values()},
             "BENCHMARK.json and workloads.py disagree on the workloads")
    _require({m["name"]: (m["unit"], m["better"])
              for m in spec["per_layer"]} == PER_LAYER,
             "BENCHMARK.json and layers.py disagree on per-layer metrics")

    def once(name: str, seed: int, trace: bool) -> dict:
        return run_workload(name, seed, seconds=0.0, trace=trace,
                            scale=SCALE, min_cycles=1, setup_repeats=1)

    for name in WORKLOADS:
        traced = once(name, 1, True)
        check_emitted(spec, traced, "per_layer")
        check_trace_file(name)
        first, other = once(name, 1, False), once(name, 2, False)
        check_emitted(spec, first, "end_to_end")
        # The traced run's untraced pass saw the same seed as ``first``.
        _require(first["logical_io"] == traced["logical_io"]
                 and first["expected"] == traced["expected"],
                 f"{name}: the same seed gave different inputs or results")
        # At this scale the sparse results (and with them the pivoted
        # widths) depend on the data, so only the op types are pinned.
        _require(first["expected"].keys() == other["expected"].keys(),
                 f"{name}: another seed changed the op types")
        _require(first["expected"] != other["expected"],
                 f"{name}: another seed gave the same data")
        verbose(f"{name} ok")
