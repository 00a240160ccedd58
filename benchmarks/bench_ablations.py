"""Ablation benchmarks for design choices both papers call out.

* ``case_dispatch``: the O(N)-per-row WHEN tests real optimizers
  perform versus the O(1) hash probe the papers propose (Section 3.2 /
  DMKD Section 3.5) -- a *ledger* factor: the pivot kernel computes
  both, so there is no wall-clock pair to present.
* ``join_index``: the division join of the vertical strategy with and
  without the recommended index on the common subkey.
* ``scaling``: direct versus indirect CASE as n grows (DMKD
  Section 4.2's scalability discussion).
* ``encoding_cache``: warm repeats of a Vpct plan with the
  table-versioned dictionary-encoding cache on versus off.
"""

import pytest

from benchmarks.conftest import EMPLOYEE_N, SALES_N, TL_N, run_once
from repro import Database
from repro.bench.harness import run_hagg_experiment, run_vpct_experiment
from repro.datagen import load_employee, load_sales
from repro.bench.workloads import (DMKD_TRANSACTION_QUERIES,
                                   SIGMOD_QUERIES, QuerySpec)
from repro.core import HorizontalStrategy, VerticalStrategy
from repro.datagen import load_transaction_line

#: The 100-column pivot (subdeptId) stresses CASE dispatch most.
_PIVOT_SPEC = DMKD_TRANSACTION_QUERIES[2]


class TestCaseDispatch:
    def test_ledger_factor(self):
        """A1: what the 100-way fan-out costs on the ledger under each
        charge.  Same kernel, same rows; only ``case_evaluations``
        differs."""
        results = {}
        for mode in ("linear", "hash"):
            db = Database(case_dispatch=mode)
            load_transaction_line(db, TL_N)
            results[mode] = run_hagg_experiment(
                db, _PIVOT_SPEC, HorizontalStrategy(source="F"),
                name=mode)
        linear, hashed = results["linear"], results["hash"]
        assert linear.case_evaluations >= 10 * hashed.case_evaluations
        assert linear.result_rows == hashed.result_rows


class TestJoinIndex:
    SPEC = SIGMOD_QUERIES[6]  # sales dept | dweek,monthNo

    def test_with_index(self, benchmark, sigmod_db):
        result = run_once(benchmark, lambda: run_vpct_experiment(
            sigmod_db, self.SPEC, VerticalStrategy(),
            name="with-index"))
        assert result.result_rows > 0

    def test_without_index(self, benchmark, sigmod_db):
        result = run_once(benchmark, lambda: run_vpct_experiment(
            sigmod_db, self.SPEC,
            VerticalStrategy(create_indexes=False),
            name="without-index"))
        assert result.result_rows > 0


class TestEncodingCache:
    """Warm Vpct/Hpct runs with the encoding cache on vs the
    ``--no-encoding-cache`` ablation (same plans, same logical I/O;
    only the np.unique passes differ)."""

    SPEC = SIGMOD_QUERIES[6]  # sales dept | dweek,monthNo

    def _bench(self, benchmark, use_cache: bool):
        db = Database(use_encoding_cache=use_cache)
        load_employee(db, EMPLOYEE_N)
        load_sales(db, SALES_N)
        # Prime: the measured runs are warm repeats either way, so the
        # cells isolate the cache's steady-state effect.
        run_vpct_experiment(db, self.SPEC, VerticalStrategy())
        result = run_once(benchmark, lambda: run_vpct_experiment(
            db, self.SPEC, VerticalStrategy(),
            name="cache-on" if use_cache else "cache-off"))
        assert result.result_rows > 0
        benchmark.extra_info["encode_cache_hits"] = \
            result.encode_cache_hits
        benchmark.extra_info["logical_io"] = result.logical_io
        return result

    def test_cache_on(self, benchmark):
        result = self._bench(benchmark, True)
        assert result.encode_cache_hits > 0

    def test_cache_off(self, benchmark):
        result = self._bench(benchmark, False)
        assert result.encode_cache_hits == 0


class TestScaling:
    """Direct vs indirect CASE while n doubles (same query shape)."""

    SPEC = QuerySpec("transactionLine deptId | dow,month",
                     "transactionline", "salesamt",
                     totals=("deptid",),
                     by=("dayofweekno", "monthno"))

    @pytest.mark.parametrize("scale", [1, 2, 4])
    @pytest.mark.parametrize("source", ["F", "FV"])
    def test_scaling(self, benchmark, scale, source):
        db = Database()
        load_transaction_line(db, (TL_N // 4) * scale)
        result = run_once(benchmark, lambda: run_hagg_experiment(
            db, self.SPEC, HorizontalStrategy(source=source),
            name=f"case_{source}@{scale}x"))
        assert result.result_rows > 0
        benchmark.extra_info["scale"] = scale
        benchmark.extra_info["source"] = source
