"""Materialized percentage views end to end: creation, bit-identical
serving, delta maintenance under DML, REFRESH/DROP, rejection of
unsupported shapes, EXPLAIN surfacing, metrics, the ``use_views``
bypass, the service read path, and disk persistence (checkpointed
reopen and pure WAL-replay recovery)."""

from __future__ import annotations

import pytest

from repro.api.database import Database
from repro.core.execute import (generate_plan, run_percentage_query,
                                run_resilient)
from repro.core.horizontal import HorizontalStrategy
from repro.core.model import parse_percentage_query
from repro.core.vertical import VerticalStrategy
from repro.errors import CatalogError, MaterializedViewError
from repro.fuzz.comparator import table_diff

VPCT = "SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2"
HPCT = "SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1"
PLAIN = "SELECT d1, sum(a), count(*) FROM f GROUP BY d1"

#: Definitions over ``g`` that pin the views' result layout -- names,
#: types, the fj lattice, label prefixes -- to the generators'.
LAYOUT = (
    "SELECT d1, sum(a) AS x, Hpct(a BY d2), max(a BY d2) FROM g "
    "GROUP BY d1",
    "SELECT d1, d2, d3, Vpct(a BY d2), Vpct(a BY d2, d3), Vpct(a) "
    "FROM g GROUP BY d1, d2, d3",
    "SELECT d1, d2, Vpct(a BY d2) AS d1x, avg(m), count(*) FROM g "
    "GROUP BY d1, d2",
    "SELECT d1, count(DISTINCT a BY d2), sum(m BY d2 DEFAULT 0) FROM g "
    "GROUP BY d1",
    "SELECT d1, Hpct(a BY d2) FROM g WHERE m > 1 GROUP BY d1",
    "SELECT d1, Hpct(a BY d2), Hpct(m BY d2) FROM g GROUP BY d1",
    "SELECT d1, d2, Vpct(m BY d2) AS vpct_m, sum(m) AS m FROM g "
    "GROUP BY d1, d2",
    "SELECT d1, min(d2 BY d3) FROM g GROUP BY d1",
    "SELECT d1, Hpct(a BY d2, d3) FROM g GROUP BY d1",
)

#: Mixed DML exercising group birth, measure drift and group death.
DML = (
    "INSERT INTO f VALUES (4, 'z', 5.0), (1, 'x', NULL)",
    "UPDATE f SET a = 2.0 WHERE d1 = 2",
    "UPDATE f SET d2 = 'y' WHERE d1 = 3",
    "DELETE FROM f WHERE d1 = 1",
)
G_DML = (
    "INSERT INTO g VALUES (4, 'z', 1, 5.0, 3), (1, 'x', 2, NULL, 1)",
    "UPDATE g SET a = 2.0, m = 0 WHERE d1 = 2",
    "UPDATE g SET d2 = 'y', d3 = 1 WHERE d1 = 3",
    "DELETE FROM g WHERE d1 = 1",
)


@pytest.fixture
def db(db):
    """The views' ``f`` plus ``g``, wide enough for :data:`LAYOUT`."""
    db.execute_script("""
        CREATE TABLE g (d1 INT, d2 VARCHAR, d3 INT, a REAL, m INT);
        INSERT INTO g VALUES (1, 'x', 1, 10.0, 2), (1, 'y', 2, 30.0, 3),
                             (2, 'x', 1, 60.0, 1), (2, 'y', 1, 0.25, 4),
                             (2, 'y', 2, -0.25, NULL), (3, 'x', 2, NULL, 5),
                             (3, NULL, NULL, 7.0, 2)
    """)
    return db


def _recompute(db, sql):
    query = parse_percentage_query(sql)
    if query.has_vertical_pct:
        strategy = VerticalStrategy()
    elif query.has_horizontal:
        strategy = HorizontalStrategy(source="F")
    else:
        return db.execute(sql, use_views=False)
    return run_percentage_query(db, sql, strategy=strategy,
                                use_views=False)


def _assert_served(db, sql):
    difference = table_diff(_recompute(db, sql), db.execute(sql))
    assert difference is None, difference


class TestCreateAndServe:
    @pytest.mark.parametrize("sql", (VPCT, HPCT, PLAIN, *LAYOUT))
    def test_served_bit_identical(self, db, sql):
        rows = db.execute(f"CREATE MATERIALIZED VIEW v AS {sql}")
        assert rows == db.execute(sql).n_rows
        assert db.catalog.has_matview("v")
        _assert_served(db, sql)

    @pytest.mark.parametrize("sql", (VPCT, HPCT, PLAIN, *LAYOUT))
    def test_delta_maintenance_under_dml(self, db, sql):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {sql}")
        script = G_DML if " FROM g " in sql else DML
        for dml in script:
            db.execute(dml)
            _assert_served(db, sql)
        assert db.stats.registry.value("view_refreshes_total",
                                       view="v", mode="delta") \
            == len(script)

    def test_from_name_scan_serves_the_view(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        assert db.query("SELECT * FROM v") == \
            [tuple(r) for r in db.execute(VPCT).to_rows()]

    def test_duplicate_name_rejected(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {PLAIN}")
        with pytest.raises(CatalogError):
            db.execute(f"CREATE MATERIALIZED VIEW v AS {PLAIN}")

    @pytest.mark.parametrize("sql", (
        "SELECT count(*) FROM f",            # no GROUP BY
        "SELECT d1, sum(a) FROM missing GROUP BY d1",
        "SELECT f.d1, count(*) FROM f, f AS g GROUP BY f.d1",
    ))
    def test_unsupported_shapes_rejected(self, db, sql):
        with pytest.raises((MaterializedViewError, CatalogError)):
            db.execute(f"CREATE MATERIALIZED VIEW v AS {sql}")
        assert not db.catalog.has_matview("v")


class TestRefreshAndDrop:
    def test_refresh_statement(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {PLAIN}")
        rows = db.execute("REFRESH MATERIALIZED VIEW v")
        assert rows == db.execute(PLAIN).n_rows
        assert db.stats.registry.value("view_refreshes_total",
                                       view="v", mode="full") == 1
        _assert_served(db, PLAIN)

    def test_drop_and_if_exists(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {PLAIN}")
        db.execute("DROP MATERIALIZED VIEW v")
        assert not db.catalog.has_matview("v")
        with pytest.raises(CatalogError):
            db.execute("DROP MATERIALIZED VIEW v")
        db.execute("DROP MATERIALIZED VIEW IF EXISTS v")


class TestPlannerAndExplain:
    def test_explain_shows_view_line(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        version = db.catalog.table("f").version
        (line,), *_ = db.query(f"EXPLAIN {VPCT}")
        assert line == f"view: v (fresh@v{version})"

    def test_explain_from_name_shows_matview_scan(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        (line,), *_ = db.query("EXPLAIN SELECT * FROM v")
        assert line.startswith("materialized view scan v (fresh@")

    def test_generated_plan_is_the_view(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        plan = generate_plan(db, VPCT)
        assert plan.description.startswith("view: v (fresh@")
        assert not plan.steps
        report = run_resilient(db, VPCT)
        difference = table_diff(_recompute(db, VPCT), report.result)
        assert difference is None, difference

    def test_pinned_strategy_bypasses_view(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        plan = generate_plan(db, VPCT, strategy=VerticalStrategy())
        assert not plan.description.startswith("view:")
        assert plan.steps


class TestMetricsAndBypass:
    def test_hit_counter_and_staleness_gauge(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        db.execute(VPCT)
        db.execute(VPCT)
        registry = db.stats.registry
        assert registry.value("view_hits_total", view="v") == 2
        assert registry.gauge("view_staleness_lag",
                              view="v").value == 0.0

    def test_use_views_false_bypasses_the_view(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {PLAIN}")
        db.execute(PLAIN, use_views=False)
        assert db.stats.registry.value("view_hits_total",
                                       view="v") == 0

    def test_no_select_a_view_cannot_answer_is_printed(self, db,
                                                       monkeypatch):
        """Matching prints a SELECT to compare it with the definitions'
        text; one over a table no view reads, or without a GROUP BY,
        is never printed -- nor is any statement of a percentage
        query's plan over such a table."""
        from repro.views import rewrite

        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        printed = []
        real = rewrite.format_select
        monkeypatch.setattr(rewrite, "format_select",
                            lambda select: printed.append(select)
                            or real(select))
        db.execute("SELECT d1, a FROM g")
        db.execute("SELECT a FROM f")
        for sql in ("SELECT d1, Hpct(a BY d2) FROM g GROUP BY d1",
                    "SELECT d1, d2, Vpct(a BY d2) FROM g "
                    "GROUP BY d1, d2"):
            run_percentage_query(db, sql)
        assert printed == []
        db.execute(VPCT)
        assert len(printed) == 1
        assert db.stats.registry.value("view_hits_total", view="v") == 1

    def test_view_read_scans_nothing_where_recompute_scans(self, db):
        """The view-read bar as a ledger fact: a served Vpct charges
        no scan, the recomputation does -- before and after a
        maintained write."""
        def last_scanned():
            return db.executor.scopes.last.counters.rows_scanned

        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        for dml in (None, "UPDATE f SET a = 2.0 WHERE d1 = 1"):
            if dml:
                db.execute(dml)
            db.execute(VPCT)
            assert last_scanned() == 0
            _recompute(db, VPCT)
            assert last_scanned() > 0


class TestServiceReadPath:
    def test_service_answers_from_the_view(self, db):
        from repro.service import QueryService

        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        with QueryService(db) as service:
            report = service.execute(VPCT)
        difference = table_diff(_recompute(db, VPCT), report.result)
        assert difference is None, difference
        assert db.stats.registry.value("view_hits_total",
                                       view="v") >= 1


class TestDiskPersistence:
    def _open(self, path) -> Database:
        return Database(storage="disk", storage_path=str(path),
                        pool_pages=32)

    def _seed(self, db) -> None:
        db.execute_script("""
            CREATE TABLE f (d1 INT, d2 VARCHAR, a REAL);
            INSERT INTO f VALUES (1, 'x', 10.0), (1, 'y', 30.0),
                                 (2, 'x', 60.0), (2, 'y', 0.25)
        """)

    def test_view_survives_checkpointed_reopen(self, tmp_path):
        db = self._open(tmp_path)
        self._seed(db)
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        db.execute("INSERT INTO f VALUES (3, 'x', 7.0)")
        expected = db.execute(VPCT)
        db.close()

        db = self._open(tmp_path)
        assert db.catalog.has_matview("v")
        mv = db.catalog.matview("v")
        assert mv.fresh(db.catalog.table("f"))
        difference = table_diff(expected, db.execute(VPCT))
        assert difference is None, difference
        assert db.stats.registry.value("view_hits_total",
                                       view="v") == 1
        db.close()

    def test_view_rebuilt_from_wal_replay(self, tmp_path):
        # abandon() releases handles without checkpointing -- the
        # on-disk state is what a kill would leave; recovery must
        # replay the WAL's create_matview record and rebuild state.
        db = self._open(tmp_path)
        self._seed(db)
        db.execute(f"CREATE MATERIALIZED VIEW v AS {VPCT}")
        db.execute("DELETE FROM f WHERE d1 = 1")
        expected = db.execute(VPCT)
        db.storage_engine.abandon()

        db = self._open(tmp_path)
        assert db.catalog.has_matview("v")
        difference = table_diff(expected, db.execute(VPCT))
        assert difference is None, difference
        db.close()

    def test_dropped_view_stays_dropped_after_replay(self, tmp_path):
        db = self._open(tmp_path)
        self._seed(db)
        db.execute(f"CREATE MATERIALIZED VIEW v AS {PLAIN}")
        db.execute("DROP MATERIALIZED VIEW v")
        db.storage_engine.abandon()

        db = self._open(tmp_path)
        assert not db.catalog.has_matview("v")
        db.close()
