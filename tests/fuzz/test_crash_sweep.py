"""The ``fault`` sweep as a test, plus its self-tests (the sweep must
not be blind to the failure classes it exists to catch)."""

from repro.core import execute as execute_mod
from repro.fuzz.generator import PLAN_FAMILIES
from repro.fuzz.sweep import FaultKind, sweep_cases
from tests.fuzz.conftest import MEMORY, cases


class TestSweep:
    def test_small_budget_sweep_is_clean(self):
        stats = sweep_cases(cases(6), "fault", variants=MEMORY)
        assert stats.ok, "\n".join(f.describe()
                                   for f in stats.findings)
        assert stats.total("fault", "shots") > 0
        # both recovery modes must actually occur in the sample
        assert stats.total("fault", "recovered") > 0
        assert stats.total("fault", "clean-errors") > 0

    def test_sweep_counts_every_site_and_kind(self):
        stats = sweep_cases(cases(1), "fault", variants=MEMORY)
        assert stats.total("fault", "runs") == 1
        # one shot per (site, index, kind) triple
        assert stats.total("fault", "shots") % len(FaultKind.GRID) == 0

    def test_sweep_detects_a_leaky_runtime(self, monkeypatch):
        """Self-test: neuter the plan cleanup and the sweep must
        report leaked temp tables (it is not blind)."""
        monkeypatch.setattr(execute_mod, "cleanup_plan",
                            lambda db, plan: None)
        stats = sweep_cases(cases(1, families=PLAN_FAMILIES), "fault",
                            variants=MEMORY)
        assert any(f.problem == "temp tables leaked"
                   for f in stats.findings)
