"""A ready-made service over a small fact table.

The global leak guard (tests/conftest.py) patches
``Database.__init__``; snapshot overlays are assembled from their
base's parts without it -- so it sweeps the *base* databases; tests
that care about overlay temps track readers explicitly (see the stress
suite)."""

from __future__ import annotations

import pytest

from repro.api.database import Database
from repro.service import QueryService


#: The fact table every service test starts from.
F_SCRIPT = """
    CREATE TABLE f (d1 INT, d2 VARCHAR, a REAL);
    INSERT INTO f VALUES (1, 'x', 10.0), (1, 'y', 30.0),
                         (2, 'x', 60.0), (2, 'y', 0.25)
"""


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute_script(F_SCRIPT)
    return database


@pytest.fixture
def service(db):
    with QueryService(db, workers=4) as svc:
        yield svc
