"""DESIGN.md section 3's module map names every module, and only
modules that exist.

The map is the code block under "## 3. System inventory": a tree
indented two spaces per level, one entry per line (``name.py`` or
``dir/``, or several ``.py`` names joined by commas) followed by its
description; description continuation lines are not entries.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

_ENTRY = re.compile(r"^[\w.]+(/|\.py)(, [\w.]+\.py)*$")


def _section_three_block() -> list[str]:
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3.", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    lines = block.strip("\n").splitlines()
    assert lines[0] == "src/repro/"
    return lines[1:]


def listed_modules() -> set[str]:
    listed: set[str] = set()
    dirs: list[str] = []
    for line in _section_three_block():
        stripped = line.lstrip(" ")
        head = re.split(r"\s{2,}", stripped, maxsplit=1)[0]
        if not _ENTRY.match(head):
            continue
        depth = (len(line) - len(stripped)) // 2 - 1
        dirs = dirs[:depth]
        if head.endswith("/"):
            dirs.append(head.rstrip("/"))
            continue
        for name in head.split(", "):
            listed.add("/".join(dirs + [name]))
    return listed


def package_modules() -> set[str]:
    return {path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py")
            if path.name not in ("__init__.py", "__main__.py")}


def test_every_module_is_listed():
    assert package_modules() - listed_modules() == set()


def test_every_listed_module_exists():
    assert listed_modules() - package_modules() == set()


def test_the_parser_reads_nested_and_joined_entries():
    listed = listed_modules()
    assert {"errors.py", "cli.py", "engine/executor.py",
            "fuzz/oracle.py", "fuzz/dialect.py"} <= listed
