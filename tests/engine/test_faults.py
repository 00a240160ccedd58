"""Unit tests for the site registry: fault injection and the one
hook that also checks the cancel token."""

import threading

import pytest

from repro.engine import cancel, faults
from repro.engine.cancel import CancelToken
from repro.engine.faults import FaultInjector, FaultSpec
from repro.errors import (QueryCancelledError, ResourceExhausted,
                          SimulatedCrash, TransientError)
from repro.obs.metrics import MetricsRegistry


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("no-such-site")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("plan-step", error="meltdown")

    def test_every_kind_maps_to_a_typed_error(self):
        assert faults.ERROR_KINDS["transient"] is TransientError
        assert faults.ERROR_KINDS["resource"] is ResourceExhausted
        assert faults.ERROR_KINDS["crash"] is SimulatedCrash
        assert faults.ERROR_KINDS["cancel"] is QueryCancelledError

    def test_cancel_only_where_the_token_is_checked(self):
        FaultSpec("dml", error="cancel")
        for site in ("plan-step", "encoding-cache", "storage-commit"):
            with pytest.raises(ValueError, match="cancel token"):
                FaultSpec(site, error="cancel")

    def test_cancellable_sites_are_the_nine_safepoints(self):
        assert [site for site, checked in faults.SITES.items()
                if checked] == [
            "statement", "scan", "join-build", "group-by", "pivot",
            "page-fetch", "projection", "dml", "view-maintenance"]


class TestFiring:
    def test_fires_at_hit_index(self):
        injector = FaultInjector([FaultSpec("plan-step", at=2)])
        injector.fire("plan-step")
        injector.fire("plan-step")
        with pytest.raises(TransientError, match="plan-step#2"):
            injector.fire("plan-step")

    def test_one_shot_then_quiet(self):
        injector = FaultInjector([FaultSpec("plan-step", at=0,
                                            times=1)])
        with pytest.raises(TransientError):
            injector.fire("plan-step")
        injector.fire("plan-step")  # spent: no further fault
        assert injector.faults_raised == 1

    def test_permanent_fault_fires_forever(self):
        injector = FaultInjector([FaultSpec("pivot", error="crash",
                                            times=None)])
        for _ in range(3):
            with pytest.raises(SimulatedCrash):
                injector.fire("pivot")

    def test_sites_count_independently(self):
        injector = FaultInjector([FaultSpec("join-build", at=1)])
        injector.fire("group-by")
        injector.fire("group-by")
        injector.fire("join-build")      # hit 0: below at
        with pytest.raises(TransientError):
            injector.fire("join-build")  # hit 1

    def test_hits_counted_even_without_specs(self):
        injector = FaultInjector()
        injector.fire("plan-step")
        injector.fire("plan-step")
        injector.fire("group-by")
        assert injector.hits == {"plan-step": 2, "group-by": 1}


class TestChaosMode:
    def test_seed_replayable(self):
        def run(seed):
            injector = FaultInjector(seed=seed, rate=0.5)
            fired = []
            for i in range(50):
                try:
                    injector.fire("plan-step")
                    fired.append(False)
                except TransientError:
                    fired.append(True)
            return fired

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_unknown_chaos_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector(seed=0, rate=1.0, chaos_sites=("pivto",))

    def test_chaos_respects_site_filter(self):
        injector = FaultInjector(seed=0, rate=1.0,
                                 chaos_sites=("pivot",))
        injector.fire("plan-step")  # not a chaos site: never fires
        with pytest.raises(TransientError):
            injector.fire("pivot")


class TestActivation:
    def test_module_fire_is_noop_without_injector(self):
        faults.cross("plan-step")  # must not raise

    def test_active_installs_and_restores(self):
        injector = FaultInjector()
        assert faults.current() is None
        with faults.active(injector):
            assert faults.current() is injector
            faults.cross("plan-step")
        assert faults.current() is None
        assert injector.hits == {"plan-step": 1}

    def test_active_nests(self):
        outer, inner = FaultInjector(), FaultInjector()
        with faults.active(outer):
            with faults.active(inner):
                assert faults.current() is inner
            assert faults.current() is outer

    def test_injectors_are_thread_local(self):
        injector = FaultInjector([FaultSpec("plan-step", at=0,
                                            times=None)])
        seen = {}

        def other_thread():
            # No injector active here: cross() must be a no-op.
            try:
                faults.cross("plan-step")
                seen["raised"] = False
            except TransientError:
                seen["raised"] = True

        with faults.active(injector):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            with pytest.raises(TransientError):
                faults.cross("plan-step")
        assert seen["raised"] is False


class TestArmedCancel:
    def test_fires_once_through_the_token(self):
        """A ``cancel`` fault cancels the ambient token at its hit; the
        hook's own token check raises, once, charged like any other
        cancellation."""
        registry = MetricsRegistry()
        token = CancelToken(registry=registry)
        injector = FaultInjector([FaultSpec("scan", error="cancel",
                                            at=1)])
        with faults.active(injector), cancel.activate(token):
            faults.cross("scan")            # hit 0: below at
            with pytest.raises(QueryCancelledError, match="at scan") \
                    as info:
                faults.cross("scan")        # hit 1
            faults.cross("scan")            # already fired: unwinds
        assert info.value.reason == "client"
        assert injector.hits["scan"] == 3
        assert registry.value("query_cancelled_total",
                              reason="client") == 1

    def test_uncancellable_site_never_checks_the_token(self):
        token = CancelToken()
        token.cancel()
        with cancel.activate(token):
            faults.cross("storage-commit")   # no raise mid-commit
            with pytest.raises(QueryCancelledError):
                faults.cross("statement")
