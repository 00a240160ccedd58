"""The printed plans are pinned, byte for byte.

For every SIGMOD/DMKD query shape and every strategy of
``test_plan_trees.JOBS``, the sha256 of ``plan.sql_script()`` is held
in ``plan_text_pins.json``.  Temp-table prefixes (``_vp3``, ``_hp7``,
``_sp12``, ...) come from a process-wide counter, so each is renumbered
by order of appearance before hashing: the first prefix of a tag in a
script is ``_<tag>1``, the next new one ``_<tag>2``.

A change to how plans are built or held may not change what they
print.  To re-pin after a deliberate change of the generated SQL::

    PYTHONPATH=src python -m tests.core.test_plan_text_pins
"""

import hashlib
import json
import os
import re

import pytest

from repro import Database
from repro.core.execute import cleanup_plan, generate_plan
from repro.datagen import (load_census, load_employee, load_sales,
                           load_transaction_line)
from tests.core.test_plan_trees import JOBS, paper_db  # noqa: F401

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "plan_text_pins.json")

IDS = [f"{sql} | {strategy.describe()}" for sql, strategy in JOBS]

_PREFIX = re.compile(r"\b_(vp|hp|sp)(\d+)")


def normalized(script: str) -> str:
    """``script`` with each temp prefix renumbered by first
    appearance, per tag."""
    seen: dict[str, str] = {}
    counts: dict[str, int] = {}

    def renumber(match: re.Match) -> str:
        prefix = match.group(0)
        if prefix not in seen:
            tag = match.group(1)
            counts[tag] = counts.get(tag, 0) + 1
            seen[prefix] = f"_{tag}{counts[tag]}"
        return seen[prefix]
    return _PREFIX.sub(renumber, script)


def digest(db, sql, strategy) -> str:
    plan = generate_plan(db, sql, strategy)
    try:
        script = plan.sql_script()
    finally:
        cleanup_plan(db, plan)
    return hashlib.sha256(normalized(script).encode()).hexdigest()


def _pins() -> dict[str, str]:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_job_is_pinned():
    assert sorted(_pins()) == sorted(IDS)
    assert len(IDS) == 228


def test_prefixes_renumber_by_first_appearance():
    script = "CREATE TABLE _vp41_fk; SELECT _hp9_fh.a FROM _vp40_f, _vp41_fk"
    assert normalized(script) == \
        "CREATE TABLE _vp1_fk; SELECT _hp1_fh.a FROM _vp2_f, _vp1_fk"


@pytest.mark.parametrize("sql, strategy", JOBS, ids=IDS)
def test_printed_plan_is_pinned(paper_db, sql,  # noqa: F811
                                strategy):
    assert digest(paper_db, sql, strategy) == \
        _pins()[f"{sql} | {strategy.describe()}"]


def _paper_db():
    """The database of ``test_plan_trees.paper_db``, outside pytest."""
    db = Database()
    load_sales(db, 1_000)
    load_employee(db, 500)
    load_census(db, 500)
    load_transaction_line(db, 1_000)
    return db


if __name__ == "__main__":
    db = _paper_db()
    pins = {job_id: digest(db, sql, strategy)
            for job_id, (sql, strategy) in zip(IDS, JOBS)}
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(pins)} plans in {PINS}")
