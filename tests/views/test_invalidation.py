"""Invalidation semantics: DROP TABLE cascades to dependent views,
savepoint rollback restores (table, view) pairs atomically, and a raw
catalog replace leaves the view honestly stale until the next read
refreshes it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.execute import run_percentage_query
from repro.core.vertical import VerticalStrategy
from repro.errors import CatalogError
from repro.fuzz.comparator import table_diff

VPCT = "SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2"
PLAIN = "SELECT d1, sum(a), count(*) FROM f GROUP BY d1"


def _recompute(db, sql=VPCT):
    return run_percentage_query(db, sql, strategy=VerticalStrategy(),
                                use_views=False)


class TestDropCascade:
    def test_drop_table_drops_dependent_views(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        db.execute(f"CREATE MATERIALIZED VIEW w AS {PLAIN}")
        db.execute("DROP TABLE f")
        assert not db.catalog.has_matview("v")
        assert not db.catalog.has_matview("w")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM v")

    def test_unrelated_view_survives_drop(self, db):
        db.execute("CREATE TABLE g (k INT, b REAL)")
        db.execute("INSERT INTO g VALUES (1, 2.0)")
        db.execute(f"CREATE MATERIALIZED VIEW v AS {PLAIN}")
        db.execute("CREATE MATERIALIZED VIEW w AS "
                   "SELECT k, sum(b) FROM g GROUP BY k")
        db.execute("DROP TABLE g")
        assert db.catalog.has_matview("v")
        assert not db.catalog.has_matview("w")


class TestSavepointRollback:
    def test_rollback_restores_table_and_view_together(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        before = db.execute(VPCT)
        fingerprint = db.catalog.fingerprint()

        savepoint = db.catalog.savepoint()
        db.execute("DELETE FROM f WHERE d1 = 1")
        db.execute("INSERT INTO f VALUES (9, 'z', 4.0)")
        db.catalog.rollback(savepoint)

        # The rolled-back view is the pre-savepoint object: fresh
        # against the restored table, never served stale.
        assert db.catalog.fingerprint() == fingerprint
        mv = db.catalog.matview("v")
        assert mv.fresh(db.catalog.table("f"))
        difference = table_diff(before, db.execute(VPCT))
        assert difference is None, difference
        assert db.stats.registry.value("view_refreshes_total",
                                       view="v", mode="full") == 0

    def test_rollback_discards_a_view_created_inside(self, db):
        savepoint = db.catalog.savepoint()
        db.execute(f"CREATE MATERIALIZED VIEW v AS {PLAIN}")
        db.catalog.rollback(savepoint)
        assert not db.catalog.has_matview("v")


class TestStaleServe:
    def test_raw_replace_goes_stale_then_refreshes_on_read(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        db.execute(VPCT)  # one fresh hit

        # A raw catalog replace (no maintenance hook) is the one way a
        # base table can move under a view: the view must go honestly
        # stale, and the next read must refresh (mode=full) and serve
        # the recomputed rows.
        table = db.catalog.table("f")
        keep = np.ones(table.n_rows, dtype=bool)
        keep[0] = False
        db.catalog.replace_table(table.filter(keep))
        mv = db.catalog.matview("v")
        assert not mv.fresh(db.catalog.table("f"))
        (line,), *_ = db.query(f"EXPLAIN {VPCT}")
        assert "(stale@" in line

        served = db.execute(VPCT)
        difference = table_diff(_recompute(db), served)
        assert difference is None, difference
        registry = db.stats.registry
        assert registry.value("view_refreshes_total", view="v",
                              mode="full") == 1
        assert db.catalog.matview("v").fresh(db.catalog.table("f"))
        (line,), *_ = db.query(f"EXPLAIN {VPCT}")
        assert "(fresh@" in line
