"""The paper-table harness: one query, one strategy, one measured cell
(:mod:`~repro.bench.harness`), the query specs of every results-table
row of both papers (:mod:`~repro.bench.workloads`) and the markdown
table printer (:mod:`~repro.bench.report`).

A library with no CLI: ``benchmarks/run_experiments.py`` generates the
tables and ``python -m benchmarks.e2e`` is the benchmark.
"""

from repro.bench.harness import (ExperimentResult, run_hagg_experiment,
                                 run_hpct_experiment, run_olap_experiment,
                                 run_vpct_experiment)
from repro.bench.workloads import (DMKD_QUERIES, SIGMOD_QUERIES,
                                   QuerySpec)

__all__ = [
    "DMKD_QUERIES",
    "ExperimentResult",
    "QuerySpec",
    "SIGMOD_QUERIES",
    "run_hagg_experiment",
    "run_hpct_experiment",
    "run_olap_experiment",
    "run_vpct_experiment",
]
