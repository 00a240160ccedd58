"""Disk x service x maintained view: the cell ``mixed_rw`` runs in.

A write through the service delta-maintains the view and a later read
is served from it.  At the parent commit ``persist_table`` minted a
new table version for the shadow copy, so on disk the view was stale
after every DML, the read refreshed inside its private snapshot
overlay and threw the result away, and ``view_hits_total`` never
moved."""

from __future__ import annotations

import pytest

from repro.api.database import Database
from repro.fuzz.comparator import table_diff
from repro.service import QueryService

QUERY = "SELECT d1, sum(a) FROM f GROUP BY d1"


@pytest.fixture
def db(tmp_path):
    with Database(storage="disk", storage_path=str(tmp_path),
                  pool_pages=8) as database:
        database.execute_script("""
            CREATE TABLE f (d1 INT, d2 VARCHAR, a REAL);
            INSERT INTO f VALUES (1, 'x', 10.0), (1, 'y', 30.0),
                                 (2, 'x', 60.0), (2, 'y', 0.25)
        """)
        database.execute(f"CREATE MATERIALIZED VIEW v AS {QUERY}")
        yield database


def test_read_after_write_is_served_from_the_view(db):
    registry = db.metrics
    with QueryService(db, workers=2) as service:
        service.execute(QUERY)
        hits = registry.value("view_hits_total", view="v")
        assert hits >= 1
        service.execute("INSERT INTO f VALUES (3, 'x', 7.0)")
        service.execute("UPDATE f SET a = a + 1 WHERE d1 = 1")
        mv = db.catalog.matview("v")
        assert mv.fresh(db.catalog.table("f"))
        report = service.execute(QUERY)
        assert registry.value("view_hits_total", view="v") > hits
    assert registry.value("view_refreshes_total", view="v",
                          mode="delta") == 2
    assert registry.value("view_refreshes_total", view="v",
                          mode="full") == 0
    difference = table_diff(db.execute(QUERY, use_views=False),
                            report.result)
    assert difference is None, difference
