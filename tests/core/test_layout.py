"""The result layout (``repro.core.layout``): the names, types and
totals every generator and the materialized views read from it."""

from __future__ import annotations

import pytest

from repro.api.database import Database
from repro.core import (HorizontalAggStrategy, HorizontalStrategy,
                        VerticalStrategy, run_percentage_query)
from repro.core.layout import layout_of
from repro.core.model import parse_percentage_query
from repro.core.naming import NamingPolicy
from repro.engine.schema import DEFAULT_MAX_NAME_LENGTH as LIMIT
from repro.engine.types import SQLType
from repro.fuzz.comparator import table_diff

#: A measure column two characters short of the identifier limit: the
#: generated ``sum_<c>`` / ``max_<c>`` names are longer than the limit.
LONG = "c" * (LIMIT - 2)

VPCT = (f"SELECT d1, d2, Vpct({LONG} BY d2), sum({LONG}) FROM f "
        f"GROUP BY d1, d2")
HPCT = f"SELECT d1, Hpct({LONG} BY d2), max({LONG}) FROM f GROUP BY d1"
HAGG = (f"SELECT d1, sum({LONG} BY d2), max({LONG}) FROM f "
        f"GROUP BY d1")


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute_script(f"""
        CREATE TABLE f (d1 INT, d2 VARCHAR, {LONG} REAL, m INT);
        INSERT INTO f VALUES (1, 'x', 10.0, 1), (1, 'sum_m', 30.0, 2),
                             (2, 'x', 60.0, 3), (2, 'y', NULL, 4),
                             (3, 'y', 5.0, NULL)
    """)
    return database


def _check_names(table) -> None:
    names = table.column_names()
    assert all(len(name) <= LIMIT for name in names)
    assert len({name.lower() for name in names}) == len(names)


class TestGeneratedNamesFitTheLimit:
    @pytest.mark.parametrize("strategy", [
        VerticalStrategy(), VerticalStrategy(use_update=True),
        VerticalStrategy(single_statement=True)],
        ids=["insert", "update", "single"])
    def test_vpct_beside_a_plain_term(self, db, strategy):
        result = run_percentage_query(db, VPCT, strategy=strategy)
        _check_names(result)
        assert [(d1, d2, total) for d1, d2, _, total
                in result.to_rows()] == db.query(
            f"SELECT d1, d2, sum({LONG}) FROM f GROUP BY d1, d2 "
            f"ORDER BY d1, d2")

    @pytest.mark.parametrize("sql, strategy", [
        (HPCT, HorizontalStrategy(source="F")),
        (HPCT, HorizontalStrategy(source="FV")),
        (HAGG, HorizontalAggStrategy(source="F")),
        (HAGG, HorizontalAggStrategy(source="FV"))],
        ids=["hpct-F", "hpct-FV", "spj-F", "spj-FV"])
    def test_horizontal_beside_a_plain_term(self, db, sql, strategy):
        result = run_percentage_query(db, sql, strategy=strategy)
        _check_names(result)
        assert [row[-1] for row in result.to_rows()] == [30.0, 60.0, 5.0]

    def test_a_view_over_the_hpct_query_serves_its_recompute(self, db):
        db.execute(f"CREATE MATERIALIZED VIEW v AS {HPCT}")
        for dml in ("", "INSERT INTO f VALUES (4, 'z', 1.0, 5)",
                    f"UPDATE f SET {LONG} = 2.0 WHERE d1 = 1",
                    "DELETE FROM f WHERE d1 = 2"):
            if dml:
                db.execute(dml)
            recompute = run_percentage_query(
                db, HPCT, strategy=HorizontalStrategy(source="F"),
                use_views=False)
            served = db.execute(HPCT)
            assert db.catalog.matview("v").fresh(db.catalog.table("f"))
            _check_names(served)
            difference = table_diff(recompute, served)
            assert difference is None, difference


class TestLayout:
    def test_terms_lattice_and_by_sets(self, db):
        query = parse_percentage_query(
            "SELECT d1, d2, Vpct(m BY d2), Vpct(m), min(d2), count(*), "
            "Vpct(m) AS share FROM f GROUP BY d1, d2")
        layout = layout_of(db.catalog, query)
        assert [t.name for t in layout.terms] == [
            "m", "m_2", "min_d2", "count_6", "share"]
        assert [t.sql_type for t in layout.terms] == [
            SQLType.REAL, SQLType.REAL, SQLType.VARCHAR,
            SQLType.INTEGER, SQLType.REAL]
        assert [t.totals for t in layout.terms] == [
            ("d1",), (), (), (), ()]
        # Finer totals first; the grand totals re-aggregate (d1).
        assert layout.lattice == ((0, None), (1, 0), (4, 0))
        assert layout.by_sets == ()

    def test_one_used_set_runs_through_cells_and_terms(self, db):
        """A cell named like a later plain term takes the name; the
        term is renamed, in the generators and in the view alike."""
        sql = "SELECT d1, Hpct(m BY d2), sum(m) FROM f GROUP BY d1"
        query = parse_percentage_query(sql)
        layout = layout_of(db.catalog, query)
        combos = {1: [("sum_m",), ("x",), ("y",)]}
        assert layout.names(combos, NamingPolicy()) == [
            ["sum_m", "x", "y"], ["sum_m_2"]]
        assert layout.by_sets == (("d2",),)
        for strategy in (HorizontalStrategy(source="F"),
                         HorizontalStrategy(source="FV")):
            result = run_percentage_query(db, sql, strategy=strategy)
            assert result.column_names() == [
                "d1", "sum_m", "x", "y", "sum_m_2"]
        db.execute(f"CREATE MATERIALIZED VIEW v AS {sql}")
        assert db.execute(sql).column_names() == [
            "d1", "sum_m", "x", "y", "sum_m_2"]

    def test_several_horizontal_terms_take_their_label(self, db):
        query = parse_percentage_query(
            "SELECT d1, Hpct(m BY d2), max(m BY d2) AS top FROM f "
            "GROUP BY d1")
        layout = layout_of(db.catalog, query)
        assert [t.prefix for t in layout.terms] == ["hpct_m_", "top_"]
        assert [t.sql_type for t in layout.terms] == [
            SQLType.REAL, SQLType.INTEGER]
        assert layout.names({1: [("x",)], 2: [("x",)]},
                            NamingPolicy()) == [["hpct_m_x"], ["top_x"]]

    @pytest.mark.parametrize("sql, strategy", [
        ("SELECT d1, Hpct(a BY b1_pct) FROM h GROUP BY d1",
         HorizontalStrategy(source="FV")),
        ("SELECT d1, sum(a BY b1_sum), avg(a) FROM h GROUP BY d1",
         HorizontalStrategy(source="FV")),
        ("SELECT d1, sum(a BY b1_sum), avg(a) FROM h GROUP BY d1",
         HorizontalAggStrategy(source="FV"))],
        ids=["hpct", "hagg", "spj"])
    def test_fv_reads_its_bases_by_their_layout_names(self, db, sql,
                                                       strategy):
        """FV names its base aggregates ``b<position>_<role>``; a BY
        column of that name renames the base, and the transpose reads
        the renamed column, not the BY column."""
        db.execute_script("""
            CREATE TABLE h (d1 INT, b1_pct INT, b1_sum INT, a REAL);
            INSERT INTO h VALUES (1, 1, 1, 10.0), (1, 2, 2, 30.0),
                                 (2, 1, 1, 5.0)
        """)
        direct = run_percentage_query(
            db, sql, strategy=HorizontalStrategy(source="F"))
        indirect = run_percentage_query(db, sql, strategy=strategy)
        assert indirect.column_names() == direct.column_names()
        assert indirect.to_rows() == direct.to_rows()
