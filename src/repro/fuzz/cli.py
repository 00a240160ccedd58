"""``python -m repro.fuzz`` -- the differential fuzzing CLI.

Examples::

    python -m repro.fuzz --seed 0 --budget 500
    python -m repro.fuzz --seed 7 --budget 200 --max-seconds 60
    python -m repro.fuzz --replay tests/fuzz/corpus
    python -m repro.fuzz --seed 0 --budget 50 --inject-bug vpct-denominator
    python -m repro.fuzz --seed 0 --budget 200 --case-timeout 10
    python -m repro.fuzz --seed 0 --budget 100 --trace
    python -m repro.fuzz --seed 0 --budget 100 --storage disk
    python -m repro.fuzz --sweep fault --seed 0 --budget 40
    python -m repro.fuzz --sweep fault --storage disk
    python -m repro.fuzz --sweep cancel --seed 0 --budget 10
    python -m repro.fuzz --sweep views --seed 0 --budget 20
    python -m repro.fuzz --sweep views --inject-bug views-skip-retraction
    python -m repro.fuzz --list-variants

Exit status 0 means every case was consistent across all strategies
and the sqlite oracle (or, under ``--sweep``, that no post-condition
broke); 1 means at least one divergence (each one is minimized and
written to ``--out`` as a replayable JSON repro) or finding; 2 is a
usage error.

``--storage`` (repeatable) picks cells of the variant matrix.  Left
unnamed, a sweep covers every cell; a differential run covers its
baseline (``memory``) and adds the other cells only when named.
``--sweep KIND`` switches from comparing strategies to disturbing
them on every selected matrix cell -- injected faults, armed
cancellations, DML under a materialized view -- and holds each shot to
one post-condition set (:mod:`repro.fuzz.sweep`; ``--list-variants``
prints the matrix, the post-conditions and the kinds).
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
from repro.fuzz.sweep import KINDS, Stats, describe, sweep_cases
from repro.fuzz.variants import STORAGES, Variant, matrix


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
                        choices=INJECTABLE_BUGS + tuple(
                            bug for kind in KINDS.values()
                            for bug in kind.bugs),
                        default=None,
                        help="deliberately mis-compile one variant "
                             "(or, with --sweep views, break one "
                             "maintenance path); the run must diverge "
                             "(harness self-test)")
    parser.add_argument("--stop-on-first", action="store_true",
                        help="exit after the first divergence (or the "
                             "first case with a finding)")
    parser.add_argument("--case-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="deadline of every top-level query of an "
                             "engine variant (its database's "
                             "default_deadline_seconds; timed-out "
                             "variants are excluded from comparison)")
    parser.add_argument("--storage", action="append",
                        choices=STORAGES, default=None,
                        metavar="STORAGE",
                        help="cell of the variant matrix, a table "
                             "substrate (repeatable; "
                             f"{', '.join(STORAGES)})")
    parser.add_argument("--trace", action="store_true",
                        help="run engine variants on traced databases "
                             "and validate every trace (well-formed "
                             "span trees, charge audits, statement-"
                             "count drift); a malformed trace counts "
                             "as a divergence")
    parser.add_argument("--sweep", choices=tuple(KINDS), default=None,
                        metavar="KIND",
                        help="disturb each case instead of comparing "
                             f"strategies ({', '.join(KINDS)}); "
                             "--list-variants describes the kinds and "
                             "the post-conditions checked after "
                             "every shot")
    parser.add_argument("--list-variants", action="store_true",
                        help="print the variant matrix, the sweep's "
                             "post-conditions and its injection kinds, "
                             "and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-divergence detail")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_variants:
        print(describe())
        return 0
    allowed = KINDS[args.sweep].bugs if args.sweep else INJECTABLE_BUGS
    if args.inject_bug is not None and args.inject_bug not in allowed:
        owner = next((name for name, kind in KINDS.items()
                      if args.inject_bug in kind.bugs), None)
        print(f"error: --inject-bug {args.inject_bug} requires "
              + (f"--sweep {owner}" if owner else "a differential run"),
              file=sys.stderr)
        return 2
    if args.replay and args.sweep:
        print("error: --replay replays the differential corpus; it "
              "does not combine with --sweep", file=sys.stderr)
        return 2
    if args.replay:
        return _replay(args)
    return _generate(args)


def _variants(args: argparse.Namespace) -> list[Variant]:
    """The matrix cells ``--storage`` selects."""
    return matrix(args.storage or (STORAGES if args.sweep else ()))


# ----------------------------------------------------------------------
def _generate(args: argparse.Namespace) -> int:
    """The one generator loop: differential by default, a sweep under
    ``--sweep``."""
    generator = CaseGenerator(seed=args.seed,
                              families=tuple(args.family or FAMILIES))
    mode = _Sweep(args) if args.sweep else _Differential(args)
    started = time.monotonic()
    ran = 0
    for case in generator.cases(args.budget):
        if args.max_seconds is not None and \
                time.monotonic() - started > args.max_seconds:
            print(f"time budget reached after {ran} cases")
            break
        ran += 1
        if mode.run(case) and args.stop_on_first:
            break
    problems = mode.report(ran, time.monotonic() - started)
    if args.inject_bug and not problems:
        print(f"error: --inject-bug {args.inject_bug} produced no "
              f"{mode.noun} -- the harness is blind to it",
              file=sys.stderr)
        return 1
    return 1 if problems else 0


class _Differential:
    noun = "divergence"

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.variants = _variants(args)
        self.families: Counter = Counter()
        self.divergences = 0
        self.printer_findings = 0

    def _run_case(self, case: FuzzCase):
        return run_case(case, inject_bug=self.args.inject_bug,
                        case_timeout=self.args.case_timeout,
                        trace=self.args.trace, variants=self.variants)

    def run(self, case: FuzzCase) -> bool:
        self.families[case.family] += 1
        result = self._run_case(case)
        if not result.divergent:
            return False
        if result.printer_finding:
            self.printer_findings += 1
            label = "PRINTER FINDING"
        else:
            self.divergences += 1
            label = "DIVERGENCE"
        print(f"{label} at case {case.index}: {result.explanation}")
        minimized = reduce_case(
            case, lambda c: self._run_case(c).divergent)
        final = self._run_case(minimized)
        path = save_repro(
            minimized, Path(self.args.out),
            description=f"minimized divergence (seed={case.seed}, "
                        f"case={case.index}): {final.explanation}",
            expect="divergent")
        print(f"  minimized to {len(minimized.rows)} row(s), "
              f"{len(minimized.group_by)} group column(s): "
              f"{minimized.query_sql()}")
        print(f"  repro written to {path}")
        if not self.args.quiet:
            print(final.divergence_report())
        return True

    def report(self, ran: int, elapsed: float) -> int:
        mix = ", ".join(f"{family}={count}" for family, count
                        in sorted(self.families.items()))
        print(f"ran {ran} cases in {elapsed:.1f}s ({mix}); "
              f"{self.divergences} divergence(s), "
              f"{self.printer_findings} printer finding(s)")
        return self.divergences + self.printer_findings


class _Sweep:
    noun = "finding"

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.variants = _variants(args)
        self.stats = Stats()

    def run(self, case: FuzzCase) -> bool:
        before = len(self.stats.findings)
        sweep_cases([case], self.args.sweep, self.stats, self.variants,
                    inject_bug=self.args.inject_bug)
        return len(self.stats.findings) > before

    def report(self, ran: int, elapsed: float) -> int:
        print(f"{self.stats.summary(self.args.sweep)} over {ran} "
              f"case(s) x {len(self.variants)} variant(s) in "
              f"{elapsed:.1f}s")
        if not self.args.quiet:
            print("\n".join(self.stats.breakdown()))
            for finding in self.stats.findings:
                print(f"FINDING: {finding.describe()}", file=sys.stderr)
        return len(self.stats.findings)


def _replay(args: argparse.Namespace) -> int:
    failures = 0
    total = 0
    variants = _variants(args)
    for path, case, expect in load_corpus(args.replay):
        total += 1
        result = run_case(case, trace=args.trace, variants=variants)
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
