"""The differential runner: per-case timeouts, the variant-naming
rule, debris as a divergence, and a printer slip as a printer
finding."""

import pytest

from repro.fuzz import runner as runner_mod
from repro.fuzz.runner import run_case
from repro.fuzz.variants import matrix
from repro.sql import ast
from tests.fuzz.conftest import cases


class TestCaseTimeout:
    def test_timed_out_variants_are_excluded_not_divergent(self):
        case = cases(1)[0]
        result = run_case(case, case_timeout=1e-9)
        statuses = {v.name: v.status for v in result.variants}
        assert any(s == "timeout" for s in statuses.values()), statuses
        assert not result.divergent, result.divergence_report()

    def test_generous_timeout_changes_nothing(self):
        for case in cases(4):
            plain = run_case(case)
            timed = run_case(case, case_timeout=60.0)
            assert plain.divergent == timed.divergent
            assert [v.status for v in plain.variants] \
                == [v.status for v in timed.variants]


class TestMatrixVariants:
    def test_primary_strategies_cross_the_matrix(self):
        """``engine:<strategy>@<storage>``: every primary strategy of
        the family on every requested cell but the baseline's own,
        after the baseline and oracle variants."""
        case = cases(1, families=("vpct",))[0]
        result = run_case(case, variants=matrix())
        assert not result.divergent, result.divergence_report()
        names = [v.name for v in result.variants]
        crossed = [n for n in names if "@" in n]
        assert crossed == [f"engine:{strategy}@disk"
                           for strategy in ("join-insert",
                                            "join-update")]
        assert names[0] == "engine:join-insert"
        assert names[-len(crossed):] == crossed

    @pytest.mark.allow_leaks  # the debris is the point
    def test_debris_is_a_divergence(self, monkeypatch):
        """A variant that leaves a plan temp table behind diverges
        even though every variant returned the same rows."""
        real = runner_mod._check_trace
        leaked = []

        def leaky(db):
            real(db)
            if not leaked:
                leaked.append(db.execute("CREATE TABLE _debris (a INT)"))

        monkeypatch.setattr(runner_mod, "_check_trace", leaky)
        result = run_case(cases(1)[0])
        assert result.divergent
        assert "temp tables leaked: _debris" in result.explanation


def test_injected_denominator_bug_is_caught():
    """Harness self-test: the mis-compiled OLAP variant (coarse
    denominator flipped to the grand total) must diverge on some
    case, or the differential net has no teeth."""
    assert any(run_case(case, inject_bug="vpct-denominator").divergent
               for case in cases(12, families=("vpct",)))


def test_a_printer_slip_is_named_as_one(monkeypatch):
    """A replayed text that parses to another tree than the one the
    engine ran is a printer finding against the sqlite replay, not an
    engine divergence."""
    parse = runner_mod.parse_statement

    def misprinted(text):
        tree = parse(text)
        if isinstance(tree, ast.Select) and tree.order_by:
            return parse(text.split(" ORDER BY ")[0])
        return tree

    monkeypatch.setattr(runner_mod, "parse_statement", misprinted)
    result = run_case(cases(1, families=("vpct",))[0])
    assert result.divergent and result.printer_finding
    replay = [v for v in result.variants if v.status == "printer"]
    assert replay and all(v.name.startswith("sqlite:replay")
                          for v in replay)
    assert "printer finding" in result.explanation


def test_a_broken_paper_identity_is_named_as_one(monkeypatch):
    """An Hpct result whose percentages are off is caught by the
    paper's identities -- rows sum to 1, Hpct is Vpct transposed --
    even where every engine variant agrees with the others."""
    execute_plan = runner_mod.execute_plan

    def nudged(db, plan):
        outcome = execute_plan(db, plan)
        if not plan.description.startswith("horizontal"):
            return outcome
        rows = outcome.result.to_rows()
        for i, row in enumerate(rows):
            j = next((j for j, v in enumerate(row)
                      if isinstance(v, float) and v > 0), None)
            if j is not None:
                rows[i] = row[:j] + (row[j] + 0.25,) + row[j + 1:]
                break
        table = type("Nudged", (), {"to_rows": lambda self: rows})()
        return type("Outcome", (), {"result": table})()

    monkeypatch.setattr(runner_mod, "execute_plan", nudged)
    results = [run_case(case) for case in cases(12, families=("hpct",))]
    caught = [r for r in results if r.divergent]
    assert caught
    assert all("identity violated" in r.explanation for r in caught)
    assert all(v.status == "identity" for r in caught
               for v in r.variants if v.name.startswith("engine:"))


def test_a_vpct_that_does_not_sum_to_one_is_named(monkeypatch):
    """A Vpct result whose percentages are off is caught by the paper's
    identity -- each parent group sums to 1 -- on every strategy that
    produced it, even where those variants agree with each other."""
    execute_plan = runner_mod.execute_plan

    def nudged(db, plan):
        outcome = execute_plan(db, plan)
        if not plan.description.startswith("vertical"):
            return outcome
        rows = outcome.result.to_rows()
        for i, row in enumerate(rows):
            j = next((j for j, v in enumerate(row)
                      if isinstance(v, float) and v > 0), None)
            if j is not None:
                rows[i] = row[:j] + (row[j] + 0.25,) + row[j + 1:]
                break
        table = type("Nudged", (), {"to_rows": lambda self: rows})()
        return type("Outcome", (), {"result": table})()

    monkeypatch.setattr(runner_mod, "execute_plan", nudged)
    results = [run_case(case) for case in cases(12, families=("vpct",))]
    caught = [r for r in results if r.divergent]
    assert caught
    assert all("identity violated" in r.explanation for r in caught)

