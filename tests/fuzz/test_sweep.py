"""The sweep as a whole: the tier-1 smoke over the variant matrix,
coverage by registration, per-cell accounting, and the CLI."""

import ast
import re
from pathlib import Path

import pytest

from repro.engine import faults
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.sweep import KINDS, Stats, describe, sweep_cases
from repro.fuzz.variants import STORAGES, matrix

#: Seed-0 cases that between them reach every site, each run on both
#: cells: #15 a 3-row Vpct whose plan joins and (on disk) writes
#: pages, #12 a 9-row CUBE, #25 a 4-row plain GROUP BY that is
#: accepted as a view, #44 an 11-row Hpct over three BY values
#: (the pivot kernel).
SMOKE_CASES = (15, 12, 25, 44)


@pytest.fixture(scope="module")
def smoke_runs():
    """Every kind over every matrix cell, every smoke case on each:
    the stats, and per (kind, variant) the registered names that cell
    armed no shot at."""
    generator = CaseGenerator(seed=0)
    cases = [generator.case(index) for index in SMOKE_CASES]
    stats, unarmed = Stats(), {}
    for kind in KINDS:
        for variant in matrix():
            before = stats.armed.copy()
            sweep_cases(cases, kind, stats, variants=(variant,))
            unarmed[(kind, variant.name)] = [
                site for site in KINDS[kind].sites
                if stats.armed[(kind, site)] == before[(kind, site)]]
    return stats, unarmed


@pytest.fixture(scope="module")
def smoke(smoke_runs):
    return smoke_runs[0]


class TestSmoke:
    def test_no_findings(self, smoke):
        assert smoke.ok, "\n".join(f.describe() for f in smoke.findings)

    def test_every_cell_of_every_kind_ran(self, smoke):
        ran = {(kind, variant) for kind, variant, _ in smoke.cells}
        assert ran == {(kind, variant.name)
                       for kind in KINDS for variant in matrix()}

    def test_every_registered_site_is_armed(self, smoke, smoke_runs):
        """Coverage by registration: a name added to ``faults.SITES``
        is armed by a kind and must be reached by the smoke on every
        matrix cell -- the summary's ``unarmed:`` line (what the
        ``sweep-smoke`` job log shows) stays empty."""
        assert {site for kind in KINDS.values() for site in kind.sites} \
            == set(faults.SITES)
        lines = smoke.breakdown()
        assert "  fault unarmed: " in lines, lines
        assert "  cancel unarmed: " in lines, lines
        # Cell by cell, only what the memory cell has no pages for.
        for (kind, variant), sites in smoke_runs[1].items():
            assert all(variant == "memory"
                       and (site.startswith("storage-")
                            or site == "page-fetch")
                       for site in sites), (kind, variant, sites)

    def test_fault_reaches_every_storage(self, smoke):
        for storage in STORAGES:
            cell = [c for (kind, variant, _), c in smoke.cells.items()
                    if (kind, variant) == ("fault", storage)]
            assert sum(c["shots"] for c in cell) > 0

    def test_cancel_arms_view_maintained_dml(self, smoke):
        for storage in STORAGES:
            cell = smoke.cells[("cancel", storage, "plain")]
            assert cell["dml-cancelled"] > 0
        assert smoke.armed[("cancel", "dml")] > 0
        assert smoke.armed[("cancel", "view-maintenance")] > 0

    def test_cube_on_disk_is_faulted_then_killed(self, smoke):
        cell = smoke.cells[("fault", "disk", "cube")]
        assert cell["shots"] > 0 and cell["shots"] == cell["clean-errors"]


class TestStats:
    def test_outcomes_are_counted_per_cell(self):
        """A cell that only ever rejects is visible as such: the cube
        family is always rejected by the view subsystem."""
        generator = CaseGenerator(seed=0, families=("cube", "vpct"))
        stats = sweep_cases(generator.cases(6), "views",
                            variants=matrix(("memory",)))
        cube = stats.cells[("views", "memory", "cube")]
        vpct = stats.cells[("views", "memory", "vpct")]
        assert cube["rejected"] > 0 and not cube["runs"]
        assert vpct["runs"] > 0
        assert stats.total("views", "rejected") \
            == cube["rejected"] + vpct["rejected"]
        assert any("cube" in line and "rejected=" in line
                   for line in stats.breakdown())


class TestCli:
    @pytest.mark.parametrize("kind", tuple(KINDS))
    def test_clean_sweep_exits_zero(self, kind, capsys):
        assert fuzz_main(["--sweep", kind, "--seed", "0", "--budget",
                          "2", "--storage", "memory"]) == 0
        out = capsys.readouterr().out
        assert f"{kind} sweep: " in out and "over 2 case(s)" in out
        assert f"  {kind} memory" in out

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as unknown_kind:
            fuzz_main(["--sweep", "nope"])
        assert unknown_kind.value.code == 2
        with pytest.raises(SystemExit) as retired_flag:
            fuzz_main(["--fault-sweep"])
        assert retired_flag.value.code == 2
        assert fuzz_main(["--sweep", "fault", "--inject-bug",
                          "views-skip-retraction"]) == 2
        assert fuzz_main(["--sweep", "views", "--inject-bug",
                          "vpct-denominator"]) == 2
        assert fuzz_main(["--sweep", "fault", "--replay", "x"]) == 2
        capsys.readouterr()

    def test_axes_are_read_from_the_matrix(self, capsys):
        with pytest.raises(SystemExit):
            fuzz_main(["--storage", "nope"])
        err = capsys.readouterr().err
        assert all(value in err for value in STORAGES)


def test_docs_mirror_the_registry():
    """docs/testing.md carries ``--list-variants`` verbatim."""
    docs = Path(__file__).resolve().parents[2] / "docs" / "testing.md"
    squeezed = re.sub(r"\s+", " ", docs.read_text())
    for line in describe().splitlines():
        assert re.sub(r"\s+", " ", line.strip()) in squeezed, line


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _crossings():
    """``(module, site)`` for every site name the sources hand the
    hook: ``faults.cross(<site>)`` and ``self._operator(...,
    site=<site>)``; ``site`` is None where the name is not a literal."""
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr == "cross" \
                    and getattr(node.func.value, "id", None) == "faults":
                arg = node.args[0]
            elif node.func.attr == "_operator":
                arg = next((k.value for k in node.keywords
                            if k.arg == "site"), None)
                if arg is None:
                    continue
            else:
                continue
            yield module, (arg.value if isinstance(arg, ast.Constant)
                           else None)


def test_every_crossed_site_is_registered_and_every_site_crossed():
    """The one registry and the code agree: a misspelt literal (which
    would count silently) and a registered name nothing crosses both
    fail.  The only non-literal crossing is ``_operator`` forwarding
    its own ``site`` argument."""
    crossings = list(_crossings())
    literal = {site for _, site in crossings if site is not None}
    assert literal - set(faults.SITES) == set()
    assert set(faults.SITES) - literal == set()
    assert [module for module, site in crossings if site is None] \
        == ["engine/executor.py"]
