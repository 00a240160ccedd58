"""What the frozen ``benchmarks/e2e`` uses of the program, pinned.

``BENCHMARK.json`` builds the benchmark from the checkout, so a PR
that renames something it imports, or a span it folds into a per-layer
metric, breaks it *after* review.  The full ``--selftest`` runs in CI;
this is the cheap part: the modules import, and every engine span
``layers._ENGINE_OPS`` reads is still emitted by some golden trace.
"""

import importlib
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "obs" / "golden"


def test_benchmark_modules_import():
    for name in ("pipeline", "workloads", "runner", "layers", "report"):
        importlib.import_module(f"benchmarks.e2e.{name}")


def test_program_surface_the_benchmark_reaches_for():
    from repro.api.database import Database
    from repro.bench import workloads
    from repro.bench.harness import report_header
    from repro.engine import shm

    assert callable(report_header) and callable(Database.execute)
    assert workloads and shm


def test_every_folded_engine_span_is_in_some_golden():
    from benchmarks.e2e.layers import _ENGINE_OPS

    emitted = set()
    for path in GOLDEN_DIR.glob("*.txt"):
        for line in path.read_text().splitlines():
            tokens = line.split()
            # An operator span renders as "<name> <duration>ms ...".
            if len(tokens) > 1 and tokens[1].endswith("ms"):
                emitted.add(tokens[0])
    assert set(_ENGINE_OPS.values()) <= emitted
