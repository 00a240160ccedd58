"""The qualitative findings of both evaluation sections, asserted as
tests (so the reproduction's claims are enforced, not just benchmarked).

Wall-clock comparisons would be flaky at test scale; the assertions use
the engine's logical cost counters, which are what carry the papers'
factors in this reproduction (see EXPERIMENTS.md).
"""

import dataclasses

import pytest

from repro import Database
from repro.bench.harness import (run_hagg_experiment,
                                 run_hpct_experiment,
                                 run_olap_experiment,
                                 run_vpct_experiment)
from repro.bench.workloads import DMKD_TRANSACTION_QUERIES, QuerySpec
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy)
from repro.core import plan as plan_mod
from repro.core.execute import execute_plan, generate_plan
from repro.datagen import load_sales, load_transaction_line

from tests.conftest import case_fanout


@pytest.fixture(scope="module")
def db():
    database = Database()
    load_sales(database, 20_000)
    return database


#: A |FV| ~ |F| query (the paper's blow-up row, scaled down).
WIDE = QuerySpec("sales dept,store | dweek,monthNo", "sales",
                 "salesamt", totals=("dweek", "monthno"),
                 by=("dept", "store"))

#: A |Fk| << |F| query.
NARROW = QuerySpec("sales monthNo | dweek", "sales", "salesamt",
                   totals=("dweek",), by=("monthno",))


class TestTable4Findings:
    def test_update_costs_more_where_fv_is_large(self, db):
        """'Doing insertion instead of update ... reduces time ... when
        FV has comparable size to F.'"""
        insert = run_vpct_experiment(db, WIDE, VerticalStrategy())
        update = run_vpct_experiment(db, WIDE,
                                     VerticalStrategy(use_update=True))
        assert update.logical_io > insert.logical_io

    def test_update_penalty_grows_with_fv_size(self, db):
        narrow_insert = run_vpct_experiment(db, NARROW,
                                            VerticalStrategy())
        narrow_update = run_vpct_experiment(
            db, NARROW, VerticalStrategy(use_update=True))
        wide_insert = run_vpct_experiment(db, WIDE, VerticalStrategy())
        wide_update = run_vpct_experiment(
            db, WIDE, VerticalStrategy(use_update=True))
        narrow_ratio = narrow_update.logical_io / \
            narrow_insert.logical_io
        wide_ratio = wide_update.logical_io / wide_insert.logical_io
        assert wide_ratio > narrow_ratio

    def test_partial_aggregate_saves_a_scan(self, db):
        """'Computing Fj from Fk saves significant time, particularly
        when |Fk| << |F|.'"""
        with_partial = run_vpct_experiment(db, NARROW,
                                           VerticalStrategy())
        without = run_vpct_experiment(
            db, NARROW, VerticalStrategy(fj_from_fk=False))
        assert without.logical_io >= \
            with_partial.logical_io + db.table("sales").n_rows * 0.9

    def test_index_is_a_catalog_entry(self, db):
        """'Having the same index ... marginally improves join
        performance' (15 vs 17 s).  Marginal is consistent with zero,
        and zero is what this engine has by construction: the paper's
        CREATE INDEX statements are emitted and run, but an index is a
        catalog definition only (DESIGN.md section 2)."""
        history_db = Database(keep_history=True)
        load_sales(history_db, 2_000)
        plan = generate_plan(history_db, NARROW.vpct_sql(),
                             VerticalStrategy())
        targets = sorted(step.sql.split(" ON ")[1].split()[0]
                         for step in plan.steps
                         if step.purpose == plan_mod.INDEX)
        fk, fj = plan.temp_tables[:2]
        assert fk.endswith("_fk") and fj.endswith("_fj1")
        assert targets == sorted([fj, fk])

        start = len(history_db.stats.history)
        execute_plan(history_db, plan)
        charged = [stats for stats in history_db.stats.history[start:]
                   if stats.sql.startswith("CREATE INDEX")]
        assert len(charged) == 2
        for stats in charged:
            assert not any(getattr(stats, f.name)
                           for f in dataclasses.fields(stats)
                           if f.name not in ("sql", "elapsed_seconds"))

        bare = run_vpct_experiment(
            db, NARROW, VerticalStrategy(create_indexes=False))
        for matching in (True, False):
            indexed = run_vpct_experiment(
                db, NARROW, VerticalStrategy(matching_indexes=matching))
            assert indexed.logical_io == bare.logical_io


class TestTable6Findings:
    def test_olap_costs_more_than_vpct_everywhere(self, db):
        """'In all cases our proposed aggregations run in less time
        than OLAP extensions.'  The factor is largest when Fk is much
        smaller than F (the window form always spools the detail)."""
        for spec, factor in ((NARROW, 2.0), (WIDE, 1.0)):
            vpct = run_vpct_experiment(db, spec, VerticalStrategy())
            olap = run_olap_experiment(db, spec)
            assert olap.logical_io > factor * vpct.logical_io


class TestDMKDTable3Findings:
    SPEC = QuerySpec("sales dept", "sales", "salesamt",
                     totals=(), by=("dept",))

    def test_spj_an_order_of_magnitude_above_case(self, db):
        spj = run_hagg_experiment(db, self.SPEC,
                                  HorizontalAggStrategy(source="F"))
        case = run_hagg_experiment(db, self.SPEC,
                                   HorizontalStrategy(source="F"))
        assert spj.logical_io > 10 * case.logical_io

    def test_spj_fv_beats_spj_f(self, db):
        direct = run_hagg_experiment(db, self.SPEC,
                                     HorizontalAggStrategy(source="F"))
        indirect = run_hagg_experiment(
            db, self.SPEC, HorizontalAggStrategy(source="FV"))
        assert indirect.logical_io < direct.logical_io

    def test_case_linear_charges_n_comparisons_per_row(self, db):
        result = run_hpct_experiment(db, self.SPEC,
                                     HorizontalStrategy(source="F"))
        n = db.table("sales").n_rows
        n_columns = 100  # dept cardinality
        assert result.case_evaluations >= n * n_columns

    @pytest.mark.parametrize("load, run, spec", [
        pytest.param(load_sales, run_hpct_experiment, SPEC,
                     id="sales-dept-hpct"),
        pytest.param(load_transaction_line, run_hagg_experiment,
                     DMKD_TRANSACTION_QUERIES[2],
                     id="dmkd-subdeptid-hagg"),
    ])
    def test_hash_dispatch_removes_the_n_factor(self, load, run, spec):
        """Ablation A1, the O(1) hash dispatch both papers propose: the
        pivot kernel computes every fan-out the same way, so the
        factor is a ledger fact.  The ledger books N WHEN tests per
        row; a hash dispatch would book one probe per row per family,
        read off the same traced run."""
        db = Database()
        load(db, 5_000)
        db.tracer.enable()
        linear = run(db, spec, HorizontalStrategy(source="F"))
        booked, probes = case_fanout(db)
        hashed = linear.case_evaluations - booked + probes
        assert hashed * 10 < linear.case_evaluations
