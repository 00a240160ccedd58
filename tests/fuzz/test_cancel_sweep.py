"""The ``cancel`` sweep as a test, plus its self-tests (the sweep must
not be blind to the failure classes it exists to catch)."""

from repro.core import execute as execute_mod
from repro.engine.cancel import CancelToken
from repro.fuzz.generator import PLAN_FAMILIES
from repro.fuzz.sweep import sweep_cases
from repro.fuzz.variants import matrix
from tests.fuzz.conftest import MEMORY, cases


class TestCancelSweep:
    def test_small_budget_sweep_is_clean(self):
        """Every storage variant over a few cases: every armed shot
        must unwind as a clean typed cancellation."""
        stats = sweep_cases(cases(3), "cancel")
        assert stats.ok, "\n".join(f.describe()
                                   for f in stats.findings)
        assert stats.total("cancel", "shots") > 0
        assert stats.total("cancel", "cancelled") > 0

    def test_sweep_covers_all_variants(self):
        stats = sweep_cases(cases(1), "cancel")
        assert stats.total("cancel", "runs") == len(matrix()) == 2

    def test_sweep_detects_a_leaky_unwind(self, monkeypatch):
        """Self-test: neuter the plan cleanup and the sweep must
        report leaked temp tables (it is not blind to leaks)."""
        monkeypatch.setattr(execute_mod, "cleanup_plan",
                            lambda db, plan: None)
        stats = sweep_cases(cases(1, families=PLAN_FAMILIES), "cancel",
                            variants=MEMORY)
        assert any(f.problem == "temp tables leaked"
                   for f in stats.findings)

    def test_sweep_detects_a_swallowed_cancel(self, monkeypatch):
        """Self-test: a token check that never raises (the sites still
        count their crossings) must surface as 'armed cancellation did
        not fire'."""
        monkeypatch.setattr(CancelToken, "poll",
                            lambda self, where="": None)
        stats = sweep_cases(cases(1, families=PLAN_FAMILIES), "cancel",
                            variants=MEMORY)
        assert any(f.problem == "armed cancellation did not fire"
                   for f in stats.findings)
