"""Experiment runner: generate + execute a query under one strategy and
record wall time plus the engine's logical cost counters.

Timing covers plan generation *and* execution, matching how the paper
measured its Java generator end to end (generation includes the
discovery feedback queries for horizontal strategies).  A cell runs
once untimed -- encoding memos filled, lazy set-up done -- and then
``runs`` times on the clock: it reports the median and the
interquartile range of those runs, and refuses a cell whose runs book
different logical I/O.
"""

from __future__ import annotations

import statistics
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

#: Schema tag stamped on every report header; bump when the header
#: layout changes.
REPORT_SCHEMA = "repro-bench/v1"


def git_revision() -> Optional[str]:
    """The commit hash of the checkout this module was imported from
    (not of the shell's working directory), or ``None`` when the code
    runs outside a git checkout (e.g. from an sdist)."""
    import os
    import subprocess
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=os.path.dirname(
                                  os.path.abspath(__file__)),
                              capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def report_header(suite: str) -> dict:
    """The header a benchmark report opens with, so reports from
    different machines and revisions are comparable."""
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


#: Timed runs per cell, after the untimed one.
RUNS = 5


@dataclass
class ExperimentResult:
    """One measured experiment cell: ``seconds`` is the median of
    ``runs`` timed runs and ``spread`` their interquartile range; the
    counters are one run's, which every run books alike."""

    label: str
    strategy: str
    seconds: float
    logical_io: int
    case_evaluations: int
    statements: int
    result_rows: int
    result_columns: int
    spread: float = 0.0
    runs: int = 1


def measure(db: Database, label: str, strategy_name: str,
            run, runs: int = RUNS) -> ExperimentResult:
    """Run ``run()`` once untimed, then time it ``runs`` times and
    charge it the ledger delta one run caused.

    ``run`` returns the result table, or a list of tables for a batch
    (their rows and columns add up).  Raises RuntimeError when two
    timed runs book different logical I/O: their times would not be
    of the same work."""
    if runs < 1:
        raise ValueError("measure needs at least one timed run")
    run()
    times, ledgers = [], set()
    for _ in range(runs):
        before = db.stats.snapshot()
        statements_before = db.stats.statements
        started = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - started)
        diff = db.stats.diff_since(before)
        ledgers.add((diff.logical_io(), diff.case_evaluations))
    if len(ledgers) > 1:
        raise RuntimeError(
            f"{label} / {strategy_name}: runs booked different logical "
            f"I/O {sorted(ledgers)}")
    tables = result if isinstance(result, list) else [result]
    quartiles = statistics.quantiles(times, n=4, method="inclusive") \
        if runs > 1 else [times[0]] * 3
    return ExperimentResult(
        label=label, strategy=strategy_name,
        seconds=statistics.median(times),
        logical_io=diff.logical_io(),
        case_evaluations=diff.case_evaluations,
        statements=db.stats.statements - statements_before,
        result_rows=sum(table.n_rows for table in tables),
        result_columns=sum(table.schema.width() for table in tables),
        spread=quartiles[2] - quartiles[0], runs=runs)


def run_vpct_experiment(db: Database, spec: QuerySpec,
                        strategy: Optional[VerticalStrategy] = None,
                        name: str = "", runs: int = RUNS
                        ) -> ExperimentResult:
    """One Table 4 cell: a Vpct query under one vertical strategy."""
    strategy = strategy or VerticalStrategy()

    def run():
        plan = generate_plan(db, spec.vpct_sql(), strategy)
        return execute_plan(db, plan).result

    return measure(db, spec.label, name or strategy.describe(), run,
                   runs)


def run_hpct_experiment(db: Database, spec: QuerySpec,
                        strategy: Optional[HorizontalStrategy] = None,
                        name: str = "", runs: int = RUNS
                        ) -> ExperimentResult:
    """One Table 5 cell: an Hpct query under one CASE strategy."""
    strategy = strategy or HorizontalStrategy()

    def run():
        plan = generate_plan(db, spec.hpct_sql(), strategy)
        return execute_plan(db, plan).result

    return measure(db, spec.label, name or strategy.describe(), run,
                   runs)


def run_hagg_experiment(db: Database, spec: QuerySpec,
                        strategy: Union[HorizontalStrategy,
                                        HorizontalAggStrategy,
                                        None] = None,
                        func: str = "sum",
                        name: str = "", runs: int = RUNS
                        ) -> ExperimentResult:
    """One DMKD Table 3 cell: a horizontal aggregation under a CASE or
    SPJ strategy."""
    strategy = strategy or HorizontalStrategy()

    def run():
        plan = generate_plan(db, spec.hagg_sql(func), strategy)
        return execute_plan(db, plan).result

    return measure(db, spec.label, name or strategy.describe(), run,
                   runs)


def run_olap_experiment(db: Database, spec: QuerySpec,
                        name: str = "OLAP extensions", runs: int = RUNS
                        ) -> ExperimentResult:
    """One Table 6 baseline cell: the window-function rendition."""

    def run():
        sql = generate_olap_percentage_query(spec.vpct_sql())
        return db.execute(sql)

    return measure(db, spec.label, name, run, runs)
