"""Resilient plan execution: savepoints, retry, fallback, and the
error-masking regression fixes."""

import pytest

from repro import Database
from repro.core.execute import (RetryPolicy, cleanup_plan, execute_plan,
                                generate_plan, run_percentage_query,
                                run_resilient)
from repro.core.horizontal import HorizontalStrategy
from repro.core.optimizer import alternate_strategy
from repro.core.vertical import VerticalStrategy
from repro.core.model import parse_percentage_query
from repro.core.hagg import HorizontalAggStrategy
from repro.engine import faults
from repro.engine.faults import FaultInjector, FaultSpec
from repro.errors import (QueryCancelledError, ResourceExhausted,
                          SimulatedCrash, TransientError)

NO_BACKOFF = RetryPolicy(backoff_seconds=0.0)

VQUERY = ("SELECT store, dweek, Vpct(amt BY dweek) FROM sales "
          "GROUP BY store, dweek")
HQUERY = "SELECT store, sum(amt BY dweek) FROM sales GROUP BY store"


@pytest.fixture
def fact_db(db):
    db.load_table(
        "sales",
        [("store", "int"), ("dweek", "varchar"), ("amt", "real")],
        [(1, "mon", 1.0), (1, "tue", 3.0),
         (2, "mon", 2.0), (2, "tue", 2.0)])
    return db


class TestRetry:
    def test_transient_fault_is_retried(self, fact_db):
        reference = run_resilient(fact_db, VQUERY).result.to_rows()
        injector = FaultInjector(
            [FaultSpec("plan-step", error="transient", at=2, times=1)])
        with faults.active(injector):
            report = run_resilient(fact_db, VQUERY, retry=NO_BACKOFF)
        assert report.attempts == 2
        assert report.result.to_rows() == reference
        assert fact_db.table_names() == ["sales"]

    def test_retry_exhaustion_raises_with_clean_catalog(self, fact_db):
        fingerprint = fact_db.catalog.fingerprint()
        injector = FaultInjector(
            [FaultSpec("plan-step", error="transient", times=None)])
        with pytest.raises(TransientError):
            with faults.active(injector):
                run_resilient(fact_db, VQUERY, retry=NO_BACKOFF)
        assert injector.faults_raised == NO_BACKOFF.max_attempts
        assert fact_db.catalog.fingerprint() == fingerprint

    def test_crash_is_never_retried(self, fact_db):
        injector = FaultInjector(
            [FaultSpec("plan-step", error="crash", times=None)])
        with pytest.raises(SimulatedCrash):
            with faults.active(injector):
                run_resilient(fact_db, VQUERY, retry=NO_BACKOFF)
        assert injector.faults_raised == 1
        assert fact_db.table_names() == ["sales"]

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1.0)

    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(backoff_seconds=0.01, multiplier=2.0)
        assert policy.delay(1) == pytest.approx(0.01)
        assert policy.delay(2) == pytest.approx(0.02)


class TestReport:
    def test_report_carries_governor_usage(self, fact_db):
        """The plan's record carries the governor's row meter."""
        report = run_resilient(fact_db, VQUERY)
        assert report.attempts == 1
        assert report.fallback_from is None
        assert report.rows_charged > 0

    def test_statements_run_counts_one_attempt(self, fact_db):
        clean = run_resilient(fact_db, VQUERY, retry=NO_BACKOFF)
        injector = FaultInjector(
            [FaultSpec("plan-step", error="transient", at=0, times=1)])
        with faults.active(injector):
            retried = run_resilient(fact_db, VQUERY, retry=NO_BACKOFF)
        assert retried.statements_run == clean.statements_run


class TestFallback:
    def test_resource_fault_triggers_replan(self, fact_db):
        reference = run_resilient(fact_db, HQUERY).result.to_rows()
        # The FV route's extra pre-aggregation absorbs the one-shot
        # resource fault; the re-plan runs the direct-F route.
        injector = FaultInjector(
            [FaultSpec("group-by", error="resource", at=0, times=1)])
        with faults.active(injector):
            report = run_resilient(
                fact_db, HQUERY,
                strategy=HorizontalStrategy(source="FV"))
        assert report.fallback_from == "horizontal CASE from FV"
        assert "ResourceExhausted" in report.fallback_error
        assert report.result.to_rows() == reference
        assert fact_db.table_names() == ["sales"]

    def test_fallback_disabled_raises(self, fact_db):
        injector = FaultInjector(
            [FaultSpec("group-by", error="resource", at=0, times=1)])
        with pytest.raises(ResourceExhausted):
            with faults.active(injector):
                run_percentage_query(
                    fact_db, HQUERY,
                    strategy=HorizontalStrategy(source="FV"))
        assert fact_db.table_names() == ["sales"]

    def test_timeout_is_not_fallback_eligible(self, fact_db):
        """The wall-clock limit is the deadline: an expired one surfaces
        after rollback instead of re-planning."""
        fact_db.default_deadline_seconds = 1e-9
        with pytest.raises(QueryCancelledError) as info:
            run_resilient(fact_db, HQUERY)
        assert info.value.reason == "deadline"
        assert not info.value.fallback_eligible
        fact_db.default_deadline_seconds = None
        assert fact_db.table_names() == ["sales"]


class TestAlternateStrategy:
    def _query(self, fact_db, sql):
        return parse_percentage_query(sql)

    def test_horizontal_flips_source(self, fact_db):
        query = self._query(fact_db, HQUERY)
        alt = alternate_strategy(fact_db, query,
                                 HorizontalStrategy(source="F"))
        assert alt.source == "FV"
        assert alternate_strategy(fact_db, query, alt).source == "F"

    def test_no_fv_route_for_distinct(self, fact_db):
        query = self._query(
            fact_db, "SELECT store, count(DISTINCT amt BY dweek) "
                     "FROM sales GROUP BY store")
        assert alternate_strategy(
            fact_db, query, HorizontalStrategy(source="F")) is None
        assert alternate_strategy(
            fact_db, query, HorizontalAggStrategy(source="F")) is None

    def test_vertical_falls_back_to_recommended(self, fact_db):
        query = self._query(fact_db, VQUERY)
        worst = VerticalStrategy(create_indexes=False)
        alt = alternate_strategy(fact_db, query, worst)
        assert alt == VerticalStrategy()

    def test_recommended_vertical_falls_back_to_update(self, fact_db):
        query = self._query(fact_db, VQUERY)
        alt = alternate_strategy(fact_db, query, VerticalStrategy())
        assert alt.use_update

    def test_result_shaping_knobs_preserved(self, fact_db):
        query = self._query(fact_db, VQUERY)
        alt = alternate_strategy(
            fact_db, query,
            VerticalStrategy(create_indexes=False,
                             missing_rows="post"))
        assert alt.missing_rows == "post"


class TestErrorMasking:
    def test_cleanup_failure_does_not_mask_execution_error(
            self, fact_db, monkeypatch):
        """Regression: the old ``finally: cleanup_plan(...)`` would
        replace the in-flight execution error with any cleanup
        error."""
        def broken_drop(name, if_exists=False):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(fact_db, "drop_table", broken_drop)
        injector = FaultInjector(
            [FaultSpec("plan-step", error="crash", times=None)])
        with pytest.raises(SimulatedCrash) as info:
            with faults.active(injector):
                run_resilient(fact_db, VQUERY, retry=NO_BACKOFF)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_rollback_failure_does_not_mask_execution_error(
            self, fact_db, monkeypatch):
        def broken_rollback(savepoint):
            raise RuntimeError("rollback exploded")

        monkeypatch.setattr(fact_db.catalog, "rollback",
                            broken_rollback)
        injector = FaultInjector(
            [FaultSpec("plan-step", error="crash", times=None)])
        with pytest.raises(SimulatedCrash) as info:
            with faults.active(injector):
                run_resilient(fact_db, VQUERY, retry=NO_BACKOFF)
        assert isinstance(info.value.__cause__, RuntimeError)


class TestCleanup:
    def test_cleanup_plan_is_idempotent(self, fact_db):
        plan = generate_plan(fact_db, VQUERY)
        report = execute_plan(fact_db, plan, keep_temps=True)
        assert any(fact_db.has_table(t) for t in plan.temp_tables)
        cleanup_plan(fact_db, plan)
        cleanup_plan(fact_db, plan)  # second call: no error
        assert fact_db.table_names() == ["sales"]
        assert report.result.n_rows > 0

    def test_cleanup_tolerates_never_created_temps(self, fact_db):
        plan = generate_plan(fact_db, VQUERY)
        plan.temp_tables.append("_never_created")
        cleanup_plan(fact_db, plan)

    def test_generation_failure_rolls_back_materialized_temps(
            self, fact_db):
        fact_db.execute("CREATE VIEW v AS SELECT * FROM sales")
        # Hpct over a view materializes a temp *during generation*,
        # then combination discovery (a DISTINCT scan) crashes.
        injector = FaultInjector(
            [FaultSpec("group-by", error="crash", times=None)])
        with pytest.raises(SimulatedCrash):
            with faults.active(injector):
                generate_plan(
                    fact_db,
                    "SELECT store, Hpct(amt BY dweek) FROM v "
                    "GROUP BY store")
        assert fact_db.table_names() == ["sales"]
