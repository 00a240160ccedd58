"""A small fact table every views test builds its views over."""

from __future__ import annotations

import pytest

from repro.api.database import Database


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute_script("""
        CREATE TABLE f (d1 INT, d2 VARCHAR, a REAL);
        INSERT INTO f VALUES (1, 'x', 10.0), (1, 'y', 30.0),
                             (2, 'x', 60.0), (2, 'y', 0.25),
                             (3, 'x', NULL)
    """)
    return database
