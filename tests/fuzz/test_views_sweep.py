"""The ``views`` sweep as a test, plus its blindness self-tests (a
deliberately broken maintenance path must surface as findings) and
the CLI smoke."""

import pytest

from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.sweep import KINDS, POSTCONDITIONS, Stats, sweep_cases
from repro.fuzz.variants import matrix
from tests.fuzz.conftest import MEMORY, cases


class TestViewsSweep:
    def test_small_budget_sweep_is_clean(self):
        """A few cases through every storage variant: every served
        read bit-identical to recompute after every DML."""
        stats = sweep_cases(cases(3), "views")
        assert stats.ok, "\n".join(f.describe()
                                   for f in stats.findings)
        assert stats.total("views", "shots") > 0

    def test_sweep_covers_all_variants(self):
        stats = sweep_cases(cases(1), "views")
        # Rejection (unsupported view shape) is a per-variant
        # outcome, not a skipped variant.
        assert stats.total("views", "runs") \
            + stats.total("views", "rejected") == len(matrix()) == 2

    @pytest.mark.parametrize("bug", ("views-skip-retraction",
                                     "views-stale-denominator"))
    def test_sweep_is_not_blind(self, bug):
        """Self-test: each injectable maintenance bug must produce a
        divergence finding, or the sweep proves nothing."""
        stats = Stats()
        # pin to percentage families: both injectable bugs live in
        # percentage-view maintenance, and the default stream mixes in
        # families the views sweep only rejects (cube)
        for case in cases(8, families=("vpct", "hpct")):
            sweep_cases([case], "views", stats, MEMORY,
                        inject_bug=bug)
            if not stats.ok:
                break
        assert any(
            f.problem == "view-served result diverges from recompute"
            for f in stats.findings)

    def test_sweep_sees_a_view_that_is_not_delta_maintained(
            self, monkeypatch):
        """Self-test of post-condition *fresh*: give the shadow copy a
        version of its own again (the parent commit's bug) and every
        disk cell must report it -- view == recompute alone cannot,
        because a stale view refreshes on read."""
        from repro.fuzz.variants import Variant
        from repro.storage.engine import StorageEngine
        from repro.storage.stored import StoredTable

        original = StorageEngine.persist_table

        def reminted(self, table, *replaced):
            stored = original(self, table, *replaced)
            return StoredTable(stored.schema, self, stored.page_map(),
                               stored.n_rows)

        monkeypatch.setattr(StorageEngine, "persist_table", reminted)
        stats = sweep_cases(cases(3), "views",
                            variants=[Variant("disk")])
        assert stats.total("views", "shots") > 0
        assert {f.problem for f in stats.findings} == {
            "materialized view was not delta-maintained"}

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError, match="unknown views bug"):
            sweep_cases(cases(1), "views",
                        inject_bug="views-no-such-bug")


class TestCli:
    def test_list_variants(self, capsys):
        """The listing is rendered from the registries: every matrix
        cell, every post-condition and every kind appears."""
        assert fuzz_main(["--list-variants"]) == 0
        out = capsys.readouterr().out
        for variant in matrix():
            assert variant.name in out
        for name in POSTCONDITIONS:
            assert f"  {name}:" in out
        for kind in KINDS:
            assert f"  {kind}:" in out
        assert "--sweep" in out

    def test_views_sweep_exit_codes(self, capsys):
        assert fuzz_main(["--sweep", "views", "--seed", "0",
                          "--budget", "1", "--storage", "memory",
                          "--quiet"]) == 0
        # Injected bug + findings = the self-test passed = exit 1
        # (mirrors --inject-bug under the differential fuzz).
        assert fuzz_main(["--sweep", "views", "--seed", "0",
                          "--budget", "2", "--storage", "memory",
                          "--inject-bug", "views-skip-retraction",
                          "--quiet"]) == 1
        capsys.readouterr()

    def test_views_bug_requires_views_sweep(self, capsys):
        assert fuzz_main(["--inject-bug", "views-skip-retraction",
                          "--budget", "1"]) == 2
        assert "requires --sweep views" in capsys.readouterr().err
