"""No surface takes an execution knob.

``Database(...)``, ``QueryService(**db_options)``,
``dbapi.connect(**options)``, ``SessionDefaults`` and the
per-statement ``execute`` options all refuse a retired knob name with
a plain ``TypeError`` that names it: no alias, no deprecation path.
Without the knob, each surface builds as before.
"""

import pytest

from repro import Database
from repro.api import dbapi
from repro.obs.metrics import MetricsRegistry
from repro.service import QueryService, SessionDefaults

#: Retired names, each with a value that used to be legal:
#: ``case_dispatch`` (only ever changed what the ledger booked for a
#: CASE fan-out; ablation A1 reads the hash figure off a trace), the
#: intra-query parallelism knobs retired with the feature (DESIGN.md
#: section 5), ``use_indexes``, retired with the index probe (DESIGN.md
#: section 2), ``use_encoding_cache``, which went with the encoding
#: cache (sealed columns memoize their encodings, with no switch), and
#: ``metrics``, a registry handed in that no caller ever passed (each
#: database makes its own).
REFUSED = {"case_dispatch": "hash", "parallel_workers": 2,
           "parallel_backend": "thread", "morsel_rows": 8192,
           "use_indexes": False, "use_encoding_cache": False,
           "metrics": MetricsRegistry(), "shed_enabled": False}

#: The two knobs an options dataclass held last, before it went too.
RETIRED = ["case_dispatch", "use_encoding_cache"]


def _database(**knobs):
    return Database(**knobs).execute("SELECT 1").rows


def _session_defaults(**knobs):
    return SessionDefaults(**knobs).deadline_seconds is None


def _query_service(**knobs):
    with QueryService(workers=1, **knobs) as service:
        return service.db.execute("SELECT 1").rows


def _connect(**knobs):
    connection = dbapi.connect(**knobs)
    try:
        cursor = connection.cursor()
        cursor.execute("SELECT 1")
        return cursor.fetchall()
    finally:
        connection.close()


def _statement(**knobs):
    return Database().execute("SELECT 1", **knobs).rows


#: The surfaces that once took the knobs of the options dataclass.
KNOB_SURFACES = [_database, _session_defaults, _query_service, _connect]

SURFACES = KNOB_SURFACES + [_statement]


@pytest.mark.parametrize("surface", KNOB_SURFACES,
                         ids=lambda s: s.__name__.lstrip("_"))
@pytest.mark.parametrize("knob", RETIRED)
def test_surface_accepts_and_rejects_like_the_dataclass(surface, knob):
    """Each surface builds without the knob, and refuses it with
    Python's own unexpected-keyword ``TypeError``, as a plain class
    that never declared it does."""
    assert surface()
    with pytest.raises(TypeError) as plain:
        SessionDefaults(**{knob: REFUSED[knob]})
    with pytest.raises(TypeError) as through:
        surface(**{knob: REFUSED[knob]})
    expected = f"got an unexpected keyword argument '{knob}'"
    assert str(plain.value).endswith(expected)
    assert str(through.value).endswith(expected)


@pytest.mark.parametrize("surface", SURFACES,
                         ids=lambda s: s.__name__.lstrip("_"))
def test_surface_refuses_a_name_the_dataclass_lacks(surface):
    """A ``TypeError`` that names the refused keyword, on every
    surface that passes keywords on and on the per-statement
    options."""
    for name, value in REFUSED.items():
        with pytest.raises(TypeError, match=name):
            surface(**{name: value})
