"""Differential fuzzing harness for the percentage-aggregation
strategies.

The paper's central claim is that every evaluation strategy -- the
temp-table join variants, the CASE pivots, the SPJ form and the OLAP
window rewrite -- "produces the same answer set" for the same query.
This package turns that claim into an executable check:

* :mod:`repro.fuzz.generator` builds deterministic random cases
  (schema + NULL-heavy/skewed/degenerate data + a valid query),
* :mod:`repro.fuzz.runner` evaluates each case under every applicable
  strategy **and** under Python's stdlib ``sqlite3`` as an external
  oracle (:mod:`repro.fuzz.oracle`, via the dialect adapter in
  :mod:`repro.fuzz.dialect`),
* :mod:`repro.fuzz.comparator` decides agreement with explicit NULL
  and float-tolerance semantics (and bitwise, where the contract is
  bit-identity),
* :mod:`repro.fuzz.variants` states the storage variant matrix and
  the leak post-condition once, for every harness,
* :mod:`repro.fuzz.sweep` disturbs each case -- injected faults,
  armed cancellations, DML under a materialized view -- on every cell
  of that matrix and checks one post-condition set after every shot,
* :mod:`repro.fuzz.reducer` delta-debugs any divergence down to a
  minimal reproducer, persisted by :mod:`repro.fuzz.corpus` and
  replayed forever by ``tests/fuzz/test_corpus.py``.

Run it with ``python -m repro.fuzz --seed 0 --budget 500``; add
``--sweep {fault,cancel,views}`` for the sweep.
"""

from repro.fuzz.comparator import compare_outcomes, normalize_rows
from repro.fuzz.corpus import load_corpus, save_repro
from repro.fuzz.generator import CaseGenerator, FuzzCase, TermSpec
from repro.fuzz.reducer import reduce_case
from repro.fuzz.runner import CaseResult, VariantResult, run_case

__all__ = [
    "CaseGenerator",
    "CaseResult",
    "FuzzCase",
    "TermSpec",
    "VariantResult",
    "compare_outcomes",
    "load_corpus",
    "normalize_rows",
    "reduce_case",
    "run_case",
    "save_repro",
]
