"""``benchmarks/run_experiments.py``, the one script that writes the
paper tables, at tiny scales: every section it writes to
EXPERIMENTS.md, and every command line the docs give for it."""

import re
import shlex
from pathlib import Path

import pytest

from benchmarks.run_experiments import build_parser, main

ROOT = Path(__file__).resolve().parents[2]
COMMAND = "python benchmarks/run_experiments.py"

#: ``--tl 2000``: extension A4's summary holds up to 1,344 rows, and
#: on a transactionLine of a few hundred rows the batch reads more than
#: separate evaluation does.  ``--runs 2``: every cell once untimed and
#: twice on the clock.
SCALES = ["--employee", "500", "--sales", "500", "--tl", "2000",
          "--census", "500", "--runs", "2"]

HEADINGS = ("Table 4 -- ", "Table 5 -- ", "Table 6 -- ",
            "DMKD Table 3 -- ", "Ablation A3 -- ", "Extension A4 -- ")

WALL = "Measured wall time (seconds)"
LOGICAL_IO = "Measured logical I/O (rows)"


def _run(tmp_path, *flags):
    out = tmp_path / "EXPERIMENTS.md"
    assert main([*SCALES, *flags, "--out", str(out)]) == 0
    header, *sections = out.read_text().split("\n## ")
    return header, sections


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("experiments"))


def _table(section, title):
    """The markdown table under ``### title`` as {label: {column:
    cell}}."""
    text = section.split(f"### {title}\n\n", 1)[1].split("\n\n", 1)[0]
    header, _, *rows = [line.strip("| ").split(" | ")
                        for line in text.splitlines()]
    return {row[0]: dict(zip(header[1:], row[1:])) for row in rows}


def test_every_section_has_both_tables(written):
    _, sections = written
    assert [s for s in sections if not s.startswith(HEADINGS)] == []
    assert len(sections) == len(HEADINGS)
    for section in sections:
        assert f"### {WALL}\n" in section
        assert f"### {LOGICAL_IO}\n" in section


def test_no_logical_io_cell_is_missing(written):
    _, sections = written
    for section in sections:
        table = _table(section, LOGICAL_IO)
        assert table
        for cells in table.values():
            assert all(cell.isdigit() for cell in cells.values()), cells


def test_wall_cells_are_medians_with_their_spread(written):
    _, sections = written
    for section in sections:
        for cells in _table(section, WALL).values():
            for cell in cells.values():
                assert re.fullmatch(r"\d+\.\d{3} \(\d+\.\d{3}\)", cell), \
                    cell


def test_row_8_is_set_against_olap(written):
    _, sections = written
    [table6] = [s for s in sections if s.startswith("Table 6")]
    comparison = table6.split("Row 8 (", 1)[1]
    for name in ("Hpct from F", "Hpct from FV", "OLAP extensions"):
        assert re.search(rf"- {name}: \d+\.\d{{3}} s \(\d+\.\d{{3}}\), "
                         rf"\d+\.\d{{2}}x OLAP", comparison), name


def test_shared_summary_batch_reads_less(written):
    _, sections = written
    [a4] = [s for s in sections if s.startswith("Extension A4")]
    [cells] = _table(a4, LOGICAL_IO).values()
    assert int(cells["shared summary"]) < int(cells["separate"])


def _documented_commands(path):
    """Every ``python benchmarks/run_experiments.py ...`` argument list
    in ``path``: backslash continuations joined, cut at a shell comment
    or the closing backtick of inline code."""
    text = path.read_text().replace("\\\n", " ")
    return [shlex.split(re.split(r"[#`]", rest)[0])
            for rest in re.findall(re.escape(COMMAND) + r"(.*)", text)]


#: The README and every skill recipe checked into the repo (the verify
#: recipe gives the scaled-down command line).
DOCS = ["README.md", *sorted(str(path.relative_to(ROOT)) for path
                             in ROOT.glob(".*/skills/*/SKILL.md"))]


def test_the_verify_recipe_is_checked():
    assert any(doc.endswith("/verify/SKILL.md") for doc in DOCS)


@pytest.mark.parametrize("doc", DOCS)
def test_documented_command_lines_parse(doc):
    commands = _documented_commands(ROOT / doc)
    assert commands
    for argv in commands:      # argparse exits on a bad flag or value
        build_parser().parse_args(argv)
