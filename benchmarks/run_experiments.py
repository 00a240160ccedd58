"""Regenerate every results table of both papers, plus ablation A3 and
extension A4, and write EXPERIMENTS.md.

Usage:
    python benchmarks/run_experiments.py [--out EXPERIMENTS.md]
        [--employee N] [--sales N] [--tl N] [--census N]

Every cell of a row runs at the row's one n, the widest SIGMOD row
(sales dept,store -> 10,000 result columns) included.  Each section is
echoed to stdout as the markdown it adds to the output file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import Database
from repro.bench.harness import (ExperimentResult, measure,
                                 run_hagg_experiment,
                                 run_hpct_experiment,
                                 run_olap_experiment,
                                 run_vpct_experiment)
from repro.bench.report import format_markdown
from repro.bench.workloads import (DMKD_CENSUS_QUERIES,
                                   DMKD_TRANSACTION_QUERIES,
                                   SIGMOD_QUERIES)
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy, run_percentage_batch,
                        run_percentage_query)
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

PAPER_A3 = """\
Paper DMKD Table 3, transactionLine deptId | dayOfWeekNo,monthNo
(seconds): CASE-F / CASE-FV
tl 1M: 28/32 | tl 2M: 35/34"""


TABLE4_NOTE = """\
Columns (1) and (2) differ only in which `CREATE INDEX` statements the
plan emits, and this engine keeps an index as a catalog entry that no
join reads (DESIGN.md section 2), so the two columns are
ledger-identical by construction; their wall times differ by noise.
"""

A3_NOTE = """\
One DMKD Table 3 row under direct (from F) and indirect (from FV) CASE
while transactionLine doubles twice (DMKD section 4.2's scalability
discussion). The two larger sizes rerun the cells on the DMKD Table 3
databases; the smallest loads its own. Every size answers the query
once untimed before its cells, so no cell pays for filling the
columns' encoding memos.
"""

#: Extension A4's batch: four percentage queries over one fact table.
SHARED_BATCH = [
    "SELECT regionid, dayofweekno, Vpct(salesamt BY dayofweekno) "
    "FROM transactionline GROUP BY regionid, dayofweekno",
    "SELECT regionid, Hpct(salesamt BY monthno) FROM transactionline "
    "GROUP BY regionid",
    "SELECT monthno, sum(salesamt BY regionid) FROM transactionline "
    "GROUP BY monthno",
    "SELECT yearno, Vpct(salesamt BY yearno) FROM transactionline "
    "GROUP BY yearno",
]

A4_NOTE = """\
The paper's section 6 names shared summaries as future work:
`run_percentage_batch` aggregates transactionLine once at the union
of the batch's grouping and BY columns and answers every query from
that summary, where separate evaluation scans the fact table once or
more per query. The summary has at most 4 x 7 x 12 x 4 = 1,344 rows
(regionId x dayOfWeekNo x monthNo x yearNo), so the batch only pays
once transactionLine is several times that size. The batch is these
four queries, run on the DMKD Table 3 transactionLine table:

```
""" + "\n".join(SHARED_BATCH) + "\n```\n"


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


def run_table5(db: Database) -> list[ExperimentResult]:
    results = []
    for spec in SIGMOD_QUERIES:
        for name, source in (("from FV", "FV"), ("from F", "F")):
            results.append(run_hpct_experiment(
                db, spec, HorizontalStrategy(source=source), name=name))
    return results


def run_table6(db: Database) -> list[ExperimentResult]:
    results = []
    for spec in SIGMOD_QUERIES:
        results.append(run_vpct_experiment(db, spec, VerticalStrategy(),
                                           name="Vpct"))
        results.append(run_hpct_experiment(
            db, spec, HorizontalStrategy(source="FV"), name="Hpct"))
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


def run_a3(by_size: dict[int, Database]) -> list[ExperimentResult]:
    """Ablation A3: one CASE row, direct and indirect, at each size."""
    spec = DMKD_TRANSACTION_QUERIES[4]
    results = []
    for n_rows, db in by_size.items():
        # Untimed: the first query over a table fills the encoding
        # cache, which about doubles that cell's wall time.
        run_hagg_experiment(db, spec)
        for name, source in (("CASE from F", "F"), ("CASE from FV", "FV")):
            result = run_hagg_experiment(
                db, spec, HorizontalStrategy(source=source), name=name)
            result.label = f"n = {n_rows:,}"
            results.append(result)
    return results


def run_a4(db: Database) -> list[ExperimentResult]:
    """Extension A4: the shared-summary batch vs one query at a time."""
    label = f"{len(SHARED_BATCH)}-query batch"
    return [
        measure(db, label, "separate", lambda: [
            run_percentage_query(db, sql) for sql in SHARED_BATCH]),
        measure(db, label, "shared summary",
                lambda: run_percentage_batch(db, SHARED_BATCH).results),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--employee", type=int, default=100_000)
    parser.add_argument("--sales", type=int, default=300_000)
    parser.add_argument("--tl", type=int, default=100_000)
    parser.add_argument("--census", type=int, default=50_000)
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)

    started = time.perf_counter()
    print(f"Loading data (employee={args.employee:,}, "
          f"sales={args.sales:,}, tl={args.tl // 2:,}/{args.tl:,}/"
          f"{2 * args.tl:,}, census={args.census:,}) ...")
    sigmod = Database()
    load_employee(sigmod, args.employee)
    load_sales(sigmod, args.sales)
    dmkd = Database()
    load_census(dmkd, args.census)
    load_transaction_line(dmkd, args.tl)
    doubled = Database()
    load_transaction_line(doubled, 2 * args.tl)
    halved = Database()
    load_transaction_line(halved, args.tl // 2)

    sections = [
        ("Table 4 -- Vpct optimization strategies", PAPER_TABLE4,
         TABLE4_NOTE, lambda: run_table4(sigmod)),
        ("Table 5 -- Hpct strategy comparison", PAPER_TABLE5, "",
         lambda: run_table5(sigmod)),
        ("Table 6 -- percentage aggregations vs OLAP extensions",
         PAPER_TABLE6, "", lambda: run_table6(sigmod)),
        ("DMKD Table 3 -- SPJ vs CASE strategies", PAPER_DMKD3, "",
         lambda: run_dmkd(dmkd, doubled)),
        ("Ablation A3 -- direct vs indirect CASE as n grows "
         "(DMKD section 4.2)", PAPER_A3, A3_NOTE,
         lambda: run_a3({args.tl // 2: halved, args.tl: dmkd,
                         2 * args.tl: doubled})),
        ("Extension A4 -- shared summaries (section 6 future work)",
         "", A4_NOTE, lambda: run_a4(dmkd)),
    ]
    output = [_header(args)]
    for title, paper, note, run in sections:
        print(f"Running {title} ...")
        section = _section(title, paper, note, run())
        print(section)
        output.append(section)

    Path(args.out).write_text("\n".join(output))
    print(f"Wrote {args.out} "
          f"({time.perf_counter() - started:.1f}s total)")
    return 0


def _section(title: str, paper: str, note: str,
             results: list[ExperimentResult]) -> str:
    parts = [f"## {title}\n"]
    if note:
        parts.append(note)
    if paper:
        parts.append("Paper numbers (for shape comparison):\n")
        parts.append("```\n" + paper + "\n```\n")
    parts.append(format_markdown("Measured wall time (seconds)",
                                 results, "seconds") + "\n")
    parts.append(format_markdown("Measured logical I/O (rows)",
                                 results, "logical_io") + "\n")
    return "\n".join(parts)


def _header(args) -> str:
    return f"""# EXPERIMENTS -- paper versus measured

Generated by `python benchmarks/run_experiments.py`
(employee n={args.employee:,}, sales n={args.sales:,},
transactionLine n={args.tl:,} and {2 * args.tl:,} (A3 adds
{args.tl // 2:,}), census n={args.census:,}; the paper used
1M / 10M / 1M+2M / 200k on an 800 MHz Teradata node).

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
factor: the booked `case_evaluations` over the one probe per row a
hash dispatch would book, which one traced run gives as `families` x
input rows (the `group-by-aggregate` and `group-by-build` spans). It
is asserted in tier 1 on the DMKD `transactionLine subdeptId` cell by
`tests/integration/test_reproduction_shapes.py`
(`test_hash_dispatch_removes_the_n_factor`); there is no wall-clock
pair.
"""


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
