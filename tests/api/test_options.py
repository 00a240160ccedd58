"""One statement of the execution knobs, every surface derived from it.

``ExecutorOptions`` declares each knob's name, default and legal
values; ``Database(...)``, ``Database.configure``, ``SessionDefaults``,
``QueryService(**db_options)`` and ``dbapi.connect(**options)`` must
accept exactly those names and reject an illegal value with exactly the
``ValueError`` the dataclass raises.  The test walks
``dataclasses.fields``, so a new knob is covered on every surface (and
must be documented) the moment it is declared.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro import Database
from repro.api import dbapi
from repro.engine.executor import ExecutorOptions
from repro.service import QueryService, SessionDefaults

KNOBS = [f.name for f in dataclasses.fields(ExecutorOptions)]

#: Per knob: a legal non-default value and an illegal one.
VALUES = {
    "case_dispatch": ("hash", "quantum"),
    "use_indexes": (False, None),
    "use_encoding_cache": (False, "off"),
}

#: Names that are not knobs: the intra-query parallelism knobs retired
#: with the feature (DESIGN.md section 5; no alias, no deprecation
#: path), each with a value that used to be legal.
REFUSED = {"parallel_workers": 2, "parallel_backend": "thread",
           "morsel_rows": 8192}

DOC = Path(__file__).resolve().parents[2] / "docs" / "engine_internals.md"


def _database(**knobs):
    return Database(**knobs).options


def _configure(**knobs):
    db = Database()
    db.configure(**knobs)
    return db.options


def _session_defaults(**knobs):
    return SessionDefaults(**knobs).resolve(ExecutorOptions())


def _query_service(**knobs):
    with QueryService(workers=1, **knobs) as service:
        return service.db.options


def _connect(**knobs):
    connection = dbapi.connect(**knobs)
    try:
        return connection.database.options
    finally:
        connection.close()


def _statement(**knobs):
    return Database().execute("SELECT 1", **knobs)


SURFACES = [_database, _configure, _session_defaults, _query_service,
            _connect]


def test_every_knob_has_a_row():
    assert KNOBS == ["case_dispatch", "use_indexes",
                     "use_encoding_cache"]
    assert sorted(VALUES) == sorted(KNOBS)


@pytest.mark.parametrize("surface", SURFACES,
                         ids=lambda s: s.__name__.lstrip("_"))
@pytest.mark.parametrize("knob", KNOBS)
def test_surface_accepts_and_rejects_like_the_dataclass(surface, knob):
    legal, illegal = VALUES[knob]
    assert legal != getattr(ExecutorOptions(), knob)
    resolved = surface(**{knob: legal})
    assert resolved == dataclasses.replace(ExecutorOptions(),
                                           **{knob: legal})
    with pytest.raises(ValueError) as direct:
        ExecutorOptions(**{knob: illegal})
    with pytest.raises(ValueError) as through:
        surface(**{knob: illegal})
    assert str(through.value) == str(direct.value)


@pytest.mark.parametrize("surface", SURFACES + [_statement],
                         ids=lambda s: s.__name__.lstrip("_"))
def test_surface_refuses_a_name_the_dataclass_lacks(surface):
    """A ``TypeError`` that names the refused keyword, on every
    surface that takes knobs and on the per-statement options."""
    for name, value in REFUSED.items():
        with pytest.raises(TypeError, match=name):
            surface(**{name: value})


def test_configure_keeps_the_knobs_it_was_not_given():
    db = Database(case_dispatch="hash", use_indexes=False)
    db.configure(use_encoding_cache=False)
    assert db.options == ExecutorOptions(
        case_dispatch="hash", use_indexes=False,
        use_encoding_cache=False)
    assert db.executor.options is db.options


def test_options_table_in_the_docs_matches_the_dataclass():
    """docs/engine_internals.md, "Execution options": one row per
    field, in declaration order, with the declared default."""
    section = DOC.read_text().split("## Execution options", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.M)
    declared = [(f.name, repr(f.default).replace("'", '"'))
                for f in dataclasses.fields(ExecutorOptions)]
    assert rows == declared
