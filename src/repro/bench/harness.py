"""Experiment runner: generate + execute a query under one strategy and
record wall time plus the engine's logical cost counters.

Timing covers plan generation *and* execution, matching how the paper
measured its Java generator end to end (generation includes the
discovery feedback queries for horizontal strategies).
"""

from __future__ import annotations

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
