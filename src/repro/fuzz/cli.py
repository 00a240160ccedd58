"""``python -m repro.fuzz`` -- the differential fuzzing CLI.

Examples::

    python -m repro.fuzz --seed 0 --budget 500
    python -m repro.fuzz --seed 7 --budget 200 --max-seconds 60
    python -m repro.fuzz --replay tests/fuzz/corpus
    python -m repro.fuzz --seed 0 --budget 50 --inject-bug vpct-denominator
    python -m repro.fuzz --fault-sweep --seed 0 --budget 40
    python -m repro.fuzz --seed 0 --budget 200 --case-timeout 10
    python -m repro.fuzz --seed 0 --budget 100 --trace
    python -m repro.fuzz --seed 0 --budget 100 --storage disk
    python -m repro.fuzz --fault-sweep --storage disk --seed 0 --budget 20
    python -m repro.fuzz --cancel-sweep --seed 0 --budget 10
    python -m repro.fuzz --views --seed 0 --budget 20
    python -m repro.fuzz --views --budget 10 --inject-bug views-skip-retraction
    python -m repro.fuzz --list-variants

Exit status 0 means every case was consistent across all strategies
and the sqlite oracle; 1 means at least one divergence (each one is
minimized and written to ``--out`` as a replayable JSON repro).

``--case-timeout`` runs every engine variant under the resource
governor's wall-clock budget so one pathological case cannot stall a
whole run; timed-out variants are excluded from comparison.
``--fault-sweep`` switches to the crash-consistency sweep: instead of
comparing strategies it injects faults at every statement boundary of
every case's plan and verifies recovery (see
:mod:`repro.fuzz.crash`).
``--cancel-sweep`` switches to the cancel-point chaos sweep: it arms a
cancellation at every safepoint each case's query crosses and verifies
the unwind (typed error, no leaks, bit-identical re-run; see
:mod:`repro.fuzz.cancelsweep`).
``--trace`` runs every engine variant on a traced database and
validates the trace after each run (well-formed span trees, charge
audits, statement-count drift against the stats ledger); a malformed
trace surfaces as a divergence.
``--views`` switches to the materialized-view maintenance sweep: each
case's query becomes a materialized view, a deterministic interleaved
DML script mutates the base table, and after every statement the
view-served answer must be bit-identical to a from-scratch recompute
(see :mod:`repro.fuzz.views`).
``--list-variants`` prints the backend x storage x trace variant
matrix the sweeps iterate, with one-line descriptions, and exits.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

from repro.fuzz.corpus import load_corpus, save_repro
from repro.fuzz.generator import FAMILIES, CaseGenerator, FuzzCase
from repro.fuzz.reducer import reduce_case
from repro.fuzz.runner import INJECTABLE_BUGS, run_case
from repro.views.maintenance import VIEWS_BUGS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzer: every percentage-query "
                    "strategy vs. the sqlite3 oracle.")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")
    parser.add_argument("--budget", type=int, default=200,
                        help="number of cases to run (default 200)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="stop early after this wall-clock budget")
    parser.add_argument("--family", action="append",
                        choices=FAMILIES, default=None,
                        metavar="FAMILY",
                        help="restrict generated cases to this query "
                             "family (repeatable; default: all of "
                             f"{', '.join(FAMILIES)}).  e.g. "
                             "--family cube for a grouping-sets-only "
                             "sweep against the UNION ALL oracle")
    parser.add_argument("--replay", metavar="DIR", default=None,
                        help="replay a corpus directory instead of "
                             "generating new cases")
    parser.add_argument("--out", metavar="DIR",
                        default="fuzz-failures",
                        help="where minimized divergences are written "
                             "(default: fuzz-failures/)")
    parser.add_argument("--inject-bug",
                        choices=INJECTABLE_BUGS + VIEWS_BUGS,
                        default=None,
                        help="deliberately mis-compile one variant "
                             "(or, with --views, break one maintenance "
                             "path); the run must diverge (harness "
                             "self-test)")
    parser.add_argument("--stop-on-first", action="store_true",
                        help="exit after minimizing the first "
                             "divergence")
    parser.add_argument("--case-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per engine variant "
                             "(enforced by the resource governor; "
                             "timed-out variants are excluded from "
                             "comparison)")
    parser.add_argument("--backend", action="append",
                        choices=("serial", "thread", "process"),
                        default=None, metavar="BACKEND",
                        help="add engine variants pinned to this "
                             "parallel backend (repeatable; serial, "
                             "thread or process).  Parallel variants "
                             "use 2-row morsels so tiny tables still "
                             "fan out, and any shared-memory segment "
                             "leaked after a case counts as a "
                             "divergence")
    parser.add_argument("--storage", action="append",
                        choices=("memory", "disk"), default=None,
                        metavar="BACKEND",
                        help="add engine variants pinned to this table "
                             "substrate (repeatable).  'memory' is the "
                             "baseline every case already runs; 'disk' "
                             "adds page-backed variants with a tiny "
                             "buffer pool that must match the memory "
                             "variants bit-for-bit, with leaked page "
                             "files or live stores counted as "
                             "divergences.  With --fault-sweep, 'disk' "
                             "additionally sweeps the WAL/buffer-pool "
                             "kill points (torn page writes, pre-fsync "
                             "and post-commit crashes) and verifies "
                             "recovery after a simulated kill")
    parser.add_argument("--trace", action="store_true",
                        help="run engine variants on traced databases "
                             "and validate every trace (well-formed "
                             "span trees, charge audits, statement-"
                             "count drift); a malformed trace counts "
                             "as a divergence")
    parser.add_argument("--fault-sweep", action="store_true",
                        help="run the crash-consistency sweep instead "
                             "of differential comparison: inject a "
                             "fault at every statement boundary and "
                             "check recovery invariants")
    parser.add_argument("--cancel-sweep", action="store_true",
                        help="run the cancel-point chaos sweep: arm a "
                             "cancellation at every safepoint the "
                             "query crosses (per backend x storage "
                             "variant; defaults to all combinations, "
                             "narrow with --backend/--storage) and "
                             "check that each shot unwinds as a clean "
                             "typed QueryCancelledError with no "
                             "catalog/shm/store leakage and a "
                             "bit-identical re-run")
    parser.add_argument("--views", action="store_true",
                        help="run the materialized-view maintenance "
                             "sweep: each case's query becomes a "
                             "materialized view, interleaved DML "
                             "mutates its base table, and every "
                             "view-served read must match a "
                             "from-scratch recompute bit-for-bit "
                             "(per backend x storage variant; narrow "
                             "with --backend/--storage)")
    parser.add_argument("--list-variants", action="store_true",
                        help="print the backend x storage x trace "
                             "variant matrix and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-divergence detail")
    return parser


#: One-line description per axis value of the variant matrix.
_AXIS_DESCRIPTIONS = {
    "serial": "interpreted engine, one worker (the baseline plans)",
    "thread": "operator thread pool, 2 workers, 2-row morsels",
    "process": "shared-memory process pool, 2 workers, 2-row morsels "
               "(leaked segments are divergences)",
    "memory": "in-memory column store (the default substrate)",
    "disk": "page-backed store, 8-page buffer pool (evictions on "
            "purpose; stray files are divergences)",
    "untraced": "no span capture (fastest)",
    "traced": "span trees validated + charge audits after every run",
}


def _list_variants() -> int:
    print("variant matrix (backend x storage x trace):")
    for backend in ("serial", "thread", "process"):
        for storage in ("memory", "disk"):
            for trace in ("untraced", "traced"):
                name = f"{backend}/{storage}/{trace}"
                print(f"  {name:<24} backend: "
                      f"{_AXIS_DESCRIPTIONS[backend]}")
                print(f"  {'':<24} storage: "
                      f"{_AXIS_DESCRIPTIONS[storage]}")
                print(f"  {'':<24} trace:   "
                      f"{_AXIS_DESCRIPTIONS[trace]}")
    print("sweeps: differential (default), --fault-sweep, "
          "--cancel-sweep, --views; select axes with --backend, "
          "--storage, --trace")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_variants:
        return _list_variants()
    if sum((args.fault_sweep, args.cancel_sweep, args.views)) > 1:
        print("error: --fault-sweep, --cancel-sweep and --views are "
              "mutually exclusive", file=sys.stderr)
        return 2
    if args.inject_bug in VIEWS_BUGS and not args.views:
        print(f"error: --inject-bug {args.inject_bug} requires "
              f"--views", file=sys.stderr)
        return 2
    if args.views:
        return _views(args)
    if args.cancel_sweep:
        return _cancel_sweep(args)
    if args.fault_sweep:
        return _sweep(args)
    if args.replay:
        return _replay(args)
    return _fuzz(args)


# ----------------------------------------------------------------------
def _fuzz(args: argparse.Namespace) -> int:
    generator = CaseGenerator(seed=args.seed,
                              families=tuple(args.family or FAMILIES))
    started = time.monotonic()
    families: Counter = Counter()
    divergences = 0
    ran = 0
    for case in generator.cases(args.budget):
        if args.max_seconds is not None and \
                time.monotonic() - started > args.max_seconds:
            print(f"time budget reached after {ran} cases")
            break
        ran += 1
        families[case.family] += 1
        result = run_case(case, inject_bug=args.inject_bug,
                          case_timeout=args.case_timeout,
                          trace=args.trace,
                          backends=tuple(args.backend or ()),
                          storages=tuple(args.storage or ()))
        if result.divergent:
            divergences += 1
            _report(case, result, args)
            if args.stop_on_first:
                break
    elapsed = time.monotonic() - started
    mix = ", ".join(f"{family}={count}"
                    for family, count in sorted(families.items()))
    print(f"ran {ran} cases in {elapsed:.1f}s ({mix}); "
          f"{divergences} divergence(s)")
    if args.inject_bug and divergences == 0:
        print(f"error: --inject-bug {args.inject_bug} produced no "
              f"divergence -- the harness is blind to it", file=sys.stderr)
        return 1
    return 1 if divergences else 0


def _report(case: FuzzCase, result, args: argparse.Namespace) -> None:
    print(f"DIVERGENCE at case {case.index}: {result.explanation}")
    backends = tuple(args.backend or ())
    storages = tuple(args.storage or ())
    minimized = reduce_case(
        case, lambda c: run_case(c, args.inject_bug,
                                 trace=args.trace,
                                 backends=backends,
                                 storages=storages).divergent)
    final = run_case(minimized, inject_bug=args.inject_bug,
                     trace=args.trace,
                     backends=backends, storages=storages)
    path = save_repro(
        minimized, Path(args.out),
        description=f"minimized divergence (seed={case.seed}, "
                    f"case={case.index}): {final.explanation}",
        expect="divergent")
    print(f"  minimized to {len(minimized.rows)} row(s), "
          f"{len(minimized.group_by)} group column(s): "
          f"{minimized.query_sql()}")
    print(f"  repro written to {path}")
    if not args.quiet:
        print(final.divergence_report())


def _sweep(args: argparse.Namespace) -> int:
    from repro.fuzz.crash import (SweepStats, sweep_case,
                                  sweep_case_storage)

    sweep_disk = "disk" in (args.storage or ())
    generator = CaseGenerator(seed=args.seed,
                              families=tuple(args.family or FAMILIES))
    started = time.monotonic()
    stats = SweepStats()
    for case in generator.cases(args.budget):
        if args.max_seconds is not None and \
                time.monotonic() - started > args.max_seconds:
            print(f"time budget reached after {stats.cases} cases")
            break
        if sweep_disk:
            sweep_case_storage(case, stats)
        else:
            sweep_case(case, stats)
    elapsed = time.monotonic() - started
    kind = "storage kill points" if sweep_disk \
        else "statement/operator sites"
    print(f"{stats.summary()} ({kind}) in {elapsed:.1f}s")
    for finding in stats.findings:
        print(f"FINDING: {finding.describe()}", file=sys.stderr)
    return 0 if stats.ok else 1


def _cancel_sweep(args: argparse.Namespace) -> int:
    from repro.fuzz.cancelsweep import (BACKENDS, STORAGES,
                                        CancelSweepStats,
                                        sweep_case_cancel)

    backends = tuple(args.backend or BACKENDS)
    storages = tuple(args.storage or STORAGES)
    generator = CaseGenerator(seed=args.seed,
                              families=tuple(args.family or FAMILIES))
    started = time.monotonic()
    stats = CancelSweepStats()
    for case in generator.cases(args.budget):
        if args.max_seconds is not None and \
                time.monotonic() - started > args.max_seconds:
            print(f"time budget reached after {stats.cases} cases")
            break
        sweep_case_cancel(case, stats, backends=backends,
                          storages=storages)
    elapsed = time.monotonic() - started
    print(f"{stats.summary()} "
          f"(backends: {', '.join(backends)}; "
          f"storages: {', '.join(storages)}) in {elapsed:.1f}s")
    for finding in stats.findings:
        print(f"FINDING: {finding.describe()}", file=sys.stderr)
    return 0 if stats.ok else 1


def _views(args: argparse.Namespace) -> int:
    from repro.fuzz.views import (BACKENDS, STORAGES, ViewSweepStats,
                                  sweep_case_views)

    if args.inject_bug is not None and args.inject_bug not in VIEWS_BUGS:
        print(f"error: --views supports --inject-bug "
              f"{'/'.join(VIEWS_BUGS)} only", file=sys.stderr)
        return 2
    backends = tuple(args.backend or BACKENDS)
    storages = tuple(args.storage or STORAGES)
    generator = CaseGenerator(seed=args.seed,
                              families=tuple(args.family or FAMILIES))
    started = time.monotonic()
    stats = ViewSweepStats()
    for case in generator.cases(args.budget):
        if args.max_seconds is not None and \
                time.monotonic() - started > args.max_seconds:
            print(f"time budget reached after {stats.cases} cases")
            break
        sweep_case_views(case, stats, backends=backends,
                         storages=storages,
                         inject_bug=args.inject_bug)
    elapsed = time.monotonic() - started
    print(f"{stats.summary()} "
          f"(backends: {', '.join(backends)}; "
          f"storages: {', '.join(storages)}) in {elapsed:.1f}s")
    if not args.quiet:
        for finding in stats.findings:
            print(f"FINDING: {finding.describe()}", file=sys.stderr)
    if args.inject_bug and stats.ok:
        print(f"error: --inject-bug {args.inject_bug} produced no "
              f"finding -- the sweep is blind to it", file=sys.stderr)
        return 1
    return 0 if stats.ok else 1


def _replay(args: argparse.Namespace) -> int:
    failures = 0
    total = 0
    for path, case, expect in load_corpus(args.replay):
        total += 1
        result = run_case(case, trace=args.trace,
                          backends=tuple(args.backend or ()),
                          storages=tuple(args.storage or ()))
        verdict = "divergent" if result.divergent else "consistent"
        ok = verdict == expect
        status = "ok" if ok else f"FAIL (expected {expect}, got {verdict})"
        print(f"{path.name}: {status}")
        if not ok:
            failures += 1
            if not args.quiet and result.divergent:
                print(result.divergence_report())
    print(f"replayed {total} corpus case(s); {failures} failure(s)")
    return 1 if failures else 0
