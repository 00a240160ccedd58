"""The CI workflow against the real argument parsers.

Nobody can run Actions offline, and a renamed flag otherwise surfaces
on the next scheduled run: every ``python -m repro.fuzz`` command in
``.github/workflows/ci.yml`` must parse with the fuzz CLI's parser
and every ``python -m benchmarks.e2e`` command with the benchmark's."""

import re
import shlex
from pathlib import Path

import pytest

from repro.fuzz.cli import build_parser
from repro.fuzz.sweep import KINDS

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[2]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _commands(module):
    """Every ``python -m <module> ...`` argument list in the workflow,
    with each job's ``matrix.include`` entries substituted in and the
    shell's own expansions replaced by a literal."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    found = []
    for job in jobs.values():
        matrix = job.get("strategy", {}).get("matrix", {})
        for entry in matrix.get("include", [{}]):
            for step in job["steps"]:
                script = step.get("run", "")
                for key, value in entry.items():
                    script = script.replace(
                        "${{ matrix.%s }}" % key, str(value))
                script = re.sub(r"\$\{\{.*?\}\}|\$\(.*?\)", "1", script)
                command = script.split("2>&1")[0]
                if f"python -m {module} " in command:
                    found.append(shlex.split(
                        command.split(f"python -m {module} ")[1]))
    return found


def test_exactly_three_jobs():
    """``repro.bench`` has no CLI any more (docs/testing.md has where
    its bars went): no fourth job, and no line that half-wires one."""
    text = WORKFLOW.read_text()
    assert sorted(yaml.safe_load(text)["jobs"]) == [
        "nightly", "sweep-smoke", "tier1"]
    assert "repro.bench" not in text


def test_fuzz_commands_parse():
    commands = _commands("repro.fuzz")
    assert commands
    for argv in commands:      # argparse exits on a bad flag or choice
        build_parser().parse_args(argv)


def test_a_fuzz_line_runs_under_a_deadline():
    """``--case-timeout`` (each variant's ``default_deadline_seconds``)
    is the deadline path's only caller outside the tests."""
    assert any("--case-timeout" in argv
               for argv in _commands("repro.fuzz"))


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else ""


def test_every_sweep_kind_runs_in_smoke_and_nightly():
    swept = [(_flag(argv, "--sweep"), _flag(argv, "--family"))
             for argv in _commands("repro.fuzz") if "--sweep" in argv]
    # Smoke and nightly each add three single-family views legs (vpct,
    # hpct, hagg): the mixed-family leg keys only a handful of
    # horizontal views.
    legs = [(kind, "") for kind in KINDS] \
        + [("views", family) for family in ("vpct", "hpct", "hagg")]
    assert sorted(swept) == sorted(legs + legs)


def test_the_vertical_leg_runs_in_smoke_and_nightly():
    """Every Vpct plan's division join, on both substrates: one
    ``--family vpct`` leg outside the sweeps in smoke, and its twin
    nightly (``test_fuzz_commands_parse`` parses both)."""
    legs = [argv for argv in _commands("repro.fuzz")
            if "--sweep" not in argv and _flag(argv, "--family") == "vpct"]
    assert len(legs) == 2
    for argv in legs:
        assert argv.count("--family") == 1
        assert [argv[i + 1] for i, flag in enumerate(argv)
                if flag == "--storage"] == ["memory", "disk"]


def test_the_plain_leg_runs_in_smoke():
    """Hand-written grouped SQL, the traffic that reaches the select-list
    binder item by item, on both substrates: one ``--family plain``
    leg outside the sweeps in smoke."""
    legs = [argv for argv in _commands("repro.fuzz")
            if "--sweep" not in argv and _flag(argv, "--family") == "plain"]
    assert len(legs) == 1
    argv, = legs
    assert argv.count("--family") == 1
    assert _flag(argv, "--budget") == "300"
    assert [argv[i + 1] for i, flag in enumerate(argv)
            if flag == "--storage"] == ["memory", "disk"]


def test_the_horizontal_leg_runs_in_smoke_and_nightly():
    """Every Hpct/Hagg plan's cell families, on both substrates: one
    ``--family hpct --family hagg`` leg outside the sweeps in smoke,
    and its twin nightly with the long budget."""
    legs = [argv for argv in _commands("repro.fuzz")
            if "--sweep" not in argv
            and _flag(argv, "--family") in ("hpct", "hagg")]
    assert len(legs) == 2
    for argv in legs:
        assert [argv[i + 1] for i, flag in enumerate(argv)
                if flag == "--family"] == ["hpct", "hagg"]
        assert [argv[i + 1] for i, flag in enumerate(argv)
                if flag == "--storage"] == ["memory", "disk"]
    assert sorted(_flag(argv, "--budget") for argv in legs) == \
        ["1000000", "300"]
    assert any(_flag(argv, "--max-seconds") == "900" for argv in legs)


def test_the_storage_leg_runs_nightly():
    """The disk store's tests run nightly under a date-varied
    hypothesis seed, so each night draws new DML sequences against the
    page-sharing commit path."""
    nightly = yaml.safe_load(WORKFLOW.read_text())["jobs"]["nightly"]
    runs = [entry["run"] for entry in nightly["strategy"]["matrix"]["include"]
            if entry["kind"] == "storage"]
    assert runs == ["python -m pytest -x -q tests/storage "
                    "tests/property/test_storage_oracle.py "
                    "--hypothesis-seed=$(date +%Y%m%d)"]
    for path in ("tests/storage", "tests/property/test_storage_oracle.py"):
        assert (ROOT / path).exists(), path


def test_the_select_list_leg_runs_nightly():
    """The files that hold per-item evaluation of a wide parsed select
    list to the cell family's one block run nightly under a
    date-varied hypothesis seed, so each night draws new lists."""
    nightly = yaml.safe_load(WORKFLOW.read_text())["jobs"]["nightly"]
    runs = [entry["run"] for entry in nightly["strategy"]["matrix"]["include"]
            if entry["kind"] == "select-list"]
    files = ["tests/property/test_select_list_oracle.py",
             "tests/property/test_pivot_bitwise.py",
             "tests/core/test_cell_families.py"]
    assert runs == ["python -m pytest -x -q " + " ".join(files)
                    + " --hypothesis-seed=$(date +%Y%m%d)"]
    for path in files:
        assert (ROOT / path).exists(), path


def test_the_stress_leg_runs_both_stores_nightly():
    """The nightly stress leg runs the whole stress file -- its memory
    and its disk-store variant -- at 5,000 ops."""
    from tests.service import test_stress

    nightly = yaml.safe_load(WORKFLOW.read_text())["jobs"]["nightly"]
    runs = [entry["run"] for entry in nightly["strategy"]["matrix"]["include"]
            if entry["kind"] == "stress"]
    assert runs == ["python -m pytest -x -q tests/service/test_stress.py"]
    [env] = [step["env"] for step in nightly["steps"]
             if step.get("name") == "Run"]
    assert env["REPRO_STRESS_OPS"] == "5000"
    assert {name for name in vars(test_stress)
            if name.startswith("test_stress_snapshot_consistency")} == {
        "test_stress_snapshot_consistency",
        "test_stress_snapshot_consistency_on_disk"}


def test_benchmark_commands_parse(monkeypatch):
    """The benchmark's parser lives inside its ``main``; with the
    self-test body stubbed out, ``main`` is parse + dispatch."""
    from benchmarks.e2e import selftest
    from benchmarks.e2e.__main__ import main

    ran = []
    monkeypatch.setattr(selftest, "run", lambda: ran.append(True))
    commands = _commands("benchmarks.e2e")
    assert ["--selftest"] in commands
    for argv in commands:
        assert argv == ["--selftest"], "stub the mode this line runs"
        assert main(argv) == 0
    assert len(ran) == len(commands)


def test_declared_numpy_floor_is_the_tested_floor():
    """``pyproject.toml`` states the floor once; the README's install
    note and the tier1 floor cell (oldest Python, numpy pinned to that
    release after the package is installed) must name the same one."""
    floor = re.search(r'^dependencies = \["numpy>=([0-9.]+)"\]$',
                      (ROOT / "pyproject.toml").read_text(),
                      re.MULTILINE).group(1)
    assert f"`numpy>={floor}`" in (ROOT / "README.md").read_text()
    tier1 = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]
    matrix = tier1["strategy"]["matrix"]
    oldest = min(matrix["python-version"],
                 key=lambda v: tuple(map(int, v.split("."))))
    assert {"python-version": oldest, "numpy": "floor"} \
        in matrix["include"]
    runs = [step.get("run", "") for step in tier1["steps"]]
    install = runs.index('python -m pip install -e ".[test]" pytest-cov')
    assert runs[install + 1] == \
        f'python -m pip install "numpy=={floor}.*"'
