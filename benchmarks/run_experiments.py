"""Regenerate every results table of both papers and write
EXPERIMENTS.md.

Usage:
    python benchmarks/run_experiments.py [--out EXPERIMENTS.md]
        [--employee N] [--sales N] [--tl N] [--census N] [--full]

Without ``--full`` the widest SIGMOD row (sales dept,store -> 10,000
result columns) runs the Hpct strategies on a reduced sales sample so
the whole harness finishes in a few minutes; ``--full`` runs it at the
configured sales scale (tens of seconds per cell).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import Database
from repro.bench.harness import (ExperimentResult, run_hagg_experiment,
                                 run_hpct_experiment,
                                 run_olap_experiment,
                                 run_vpct_experiment)
from repro.bench.report import format_markdown, format_table
from repro.bench.workloads import (DMKD_CENSUS_QUERIES,
                                   DMKD_TRANSACTION_QUERIES,
                                   SIGMOD_QUERIES)
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy)
from repro.datagen import (load_census, load_employee, load_sales,
                           load_transaction_line)

PAPER_TABLE4 = """\
Paper Table 4 (seconds, Teradata V2R4, employee n=1M / sales n=10M):
(1) best; (2) mismatched indexes; (3) UPDATE; (4) Fj from F
employee gender: 15/17/15/26 | gender|marstatus: 15/15/15/25
employee gender|educat,marstatus: 16/16/16/26 | gender,educat|age,marstatus: 15/16/27/27
sales dweek: 84/84/82/161 | monthNo|dweek: 84/85/85/164
sales dept|dweek,monthNo: 88/87/139/168 | dept,store|dweek,monthNo: 656/658/2879/976"""

PAPER_TABLE5 = """\
Paper Table 5 (seconds): from FV / from F
employee rows: 21/14, 16/13, 17/13, 29/50
sales rows: 88/89, 85/85, 93/195, 702/4463"""

PAPER_TABLE6 = """\
Paper Table 6 (seconds): Vpct / Hpct / OLAP extensions
employee rows: 15/14/90, 15/13/64, 16/13/122, 17/29/85
sales rows: 87/89/2708, 85/85/2881, 88/93/3897, 656/702/4512"""

PAPER_DMKD3 = """\
Paper DMKD Table 3 (seconds): SPJ-F / SPJ-FV / CASE-F / CASE-FV
UScensus: 31/31/8/10, 33/34/10/12, 41/41/9/11, 37/40/8/11, 69/71/10/13
tl 1M: 48/33/10/12, 127/102/15/13, 2077/1623/30/37, 68/56/14/13,
       1627/1242/28/32, 1536/1140/27/37
tl 2M: 94/38/20/13, 159/105/28/15, 2280/1965/39/36, 104/58/20/14,
       1744/1458/35/34, 1783/1369/40/40"""


def run_table4(db: Database) -> list[ExperimentResult]:
    strategies = [
        ("(1) best", VerticalStrategy()),
        ("(2) mismatched idx", VerticalStrategy(matching_indexes=False)),
        ("(3) update", VerticalStrategy(use_update=True)),
        ("(4) Fj from F", VerticalStrategy(fj_from_fk=False)),
    ]
    results = []
    for spec in SIGMOD_QUERIES:
        for name, strategy in strategies:
            results.append(run_vpct_experiment(db, spec, strategy,
                                               name=name))
    return results


def run_table5(db: Database, full_db: Database | None
               ) -> list[ExperimentResult]:
    results = []
    for spec in SIGMOD_QUERIES:
        target = db
        if "dept,store" in spec.label and full_db is not None:
            target = full_db
        for name, source in (("from FV", "FV"), ("from F", "F")):
            results.append(run_hpct_experiment(
                target, spec, HorizontalStrategy(source=source),
                name=name))
    return results


def run_table6(db: Database, full_db: Database | None
               ) -> list[ExperimentResult]:
    results = []
    for spec in SIGMOD_QUERIES:
        results.append(run_vpct_experiment(db, spec, VerticalStrategy(),
                                           name="Vpct"))
        target = db
        if "dept,store" in spec.label and full_db is not None:
            target = full_db
        results.append(run_hpct_experiment(
            target, spec, HorizontalStrategy(source="FV"), name="Hpct"))
        results.append(run_olap_experiment(db, spec,
                                           name="OLAP extens"))
    return results


def run_dmkd(db: Database, doubled: Database) -> list[ExperimentResult]:
    strategies = [
        ("SPJ from F", HorizontalAggStrategy(source="F")),
        ("SPJ from FV", HorizontalAggStrategy(source="FV")),
        ("CASE from F", HorizontalStrategy(source="F")),
        ("CASE from FV", HorizontalStrategy(source="FV")),
    ]
    results = []
    for spec in DMKD_CENSUS_QUERIES + DMKD_TRANSACTION_QUERIES:
        for name, strategy in strategies:
            results.append(run_hagg_experiment(db, spec, strategy,
                                               name=name))
    for spec in DMKD_TRANSACTION_QUERIES:
        for name, strategy in strategies:
            result = run_hagg_experiment(doubled, spec, strategy,
                                         name=name)
            result.label = f"{spec.label} (2x)"
            results.append(result)
    return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--employee", type=int, default=100_000)
    parser.add_argument("--sales", type=int, default=300_000)
    parser.add_argument("--tl", type=int, default=100_000)
    parser.add_argument("--census", type=int, default=50_000)
    parser.add_argument("--reduced-sales", type=int, default=50_000,
                        help="sales size for the 10,000-column row "
                             "unless --full")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--no-encoding-cache", action="store_true",
                        help="ablation: recompute dictionary encodings "
                             "at every plan step (results and logical "
                             "I/O are unchanged; wall time grows)")
    args = parser.parse_args(argv)
    use_cache = not args.no_encoding_cache

    started = time.perf_counter()
    print(f"Loading data (employee={args.employee:,}, "
          f"sales={args.sales:,}, tl={args.tl:,}/"
          f"{2 * args.tl:,}, census={args.census:,}) ...")
    sigmod = Database(use_encoding_cache=use_cache)
    load_employee(sigmod, args.employee)
    load_sales(sigmod, args.sales)
    reduced = None
    if not args.full:
        reduced = Database(use_encoding_cache=use_cache)
        load_sales(reduced, args.reduced_sales)
    dmkd = Database(use_encoding_cache=use_cache)
    load_census(dmkd, args.census)
    load_transaction_line(dmkd, args.tl)
    doubled = Database(use_encoding_cache=use_cache)
    load_transaction_line(doubled, 2 * args.tl)

    sections = []
    print("Running Table 4 (Vpct optimizations) ...")
    table4 = run_table4(sigmod)
    sections.append(("Table 4 -- Vpct optimization strategies",
                     PAPER_TABLE4, table4))
    print("Running Table 5 (Hpct strategies) ...")
    table5 = run_table5(sigmod, reduced)
    sections.append(("Table 5 -- Hpct strategy comparison",
                     PAPER_TABLE5, table5))
    print("Running Table 6 (vs OLAP extensions) ...")
    table6 = run_table6(sigmod, reduced)
    sections.append(("Table 6 -- percentage aggregations vs OLAP "
                     "extensions", PAPER_TABLE6, table6))
    print("Running DMKD Table 3 (SPJ vs CASE) ...")
    dmkd3 = run_dmkd(dmkd, doubled)
    sections.append(("DMKD Table 3 -- SPJ vs CASE strategies",
                     PAPER_DMKD3, dmkd3))

    note = ""
    if reduced is not None:
        note = (f"\n> The `sales dept,store` row (10,000 result "
                f"columns) ran its Hpct cells on a reduced sales "
                f"sample of n = {args.reduced_sales:,} "
                f"(pass `--full` for the configured scale).\n")

    output = [_header(args, time.perf_counter() - started, note)]
    for title, paper, results in sections:
        output.append(f"## {title}\n")
        output.append("Paper numbers (for shape comparison):\n")
        output.append("```\n" + paper + "\n```\n")
        output.append(format_markdown("Measured wall time (seconds)",
                                      results, "seconds") + "\n")
        output.append(format_markdown("Measured logical I/O (rows)",
                                      results, "logical_io") + "\n")
        print()
        print(format_table(title, results))

    Path(args.out).write_text("\n".join(output))
    print(f"\nWrote {args.out} "
          f"({time.perf_counter() - started:.1f}s total)")
    return 0


def _header(args, elapsed: float, note: str) -> str:
    return f"""# EXPERIMENTS -- paper versus measured

Generated by `python benchmarks/run_experiments.py`
(employee n={args.employee:,}, sales n={args.sales:,},
transactionLine n={args.tl:,} and {2 * args.tl:,},
census n={args.census:,}; the paper used 1M / 10M / 1M+2M / 200k on an
800 MHz Teradata node).
{note}
**How to read these tables.** Absolute seconds are not comparable to
the paper's (different hardware, disk-based DBMS vs in-memory columnar
engine); what should match -- and does, see the per-table notes in
README/DESIGN -- is the *shape*: which strategy wins each row, and how
the logical-I/O factors line up with the paper's wall-clock factors.
The engine's logical-I/O counter (rows read + rows written +
2 x rows updated) restores the cost asymmetries that RAM hides:
UPDATE write-amplification, the SPJ strategy's N extra scans, and the
OLAP window spools.

The CASE columns of Table 5 and DMKD Table 3 are computed by the pivot
kernel -- one pass per `agg(CASE WHEN d = v THEN a END)` family,
whatever the fan-out -- while the ledger still books the N WHEN tests
per row the paper's DBMS performed (DESIGN.md section 5). Ablation A1
(the O(1) hash dispatch both papers propose) is therefore a *ledger*
factor, `case_evaluations` under `case_dispatch="linear"` over
`"hash"`, asserted by `benchmarks/bench_ablations.py::TestCaseDispatch`;
there is no wall-clock pair, and no cell below depends on the knob.
"""


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
