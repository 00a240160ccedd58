"""A maintained write re-derives only the rows it can change.

The ``view-maintenance`` span says how many groups the view holds
(``groups``) and how many result rows the refresh wrote
(``rederived``: the rows of the touched groups plus every row sharing
a denominator with one of them; all rows on a full derive).  A write
that births or retracts no group derives no full view: the row order
cached by the last full derive serves it.
"""

from __future__ import annotations

import pytest

from repro.api.database import Database
from repro.views import rewrite

VIEW = ("SELECT dept, dweek, monthno, Vpct(salesamt BY dweek, monthno) "
        "FROM sales GROUP BY dept, dweek, monthno")


@pytest.fixture
def db() -> Database:
    database = Database(tracing=True)
    rows = [(dept, dweek, monthno, float(dept + dweek * monthno))
            for dept in range(1, 101) for dweek in range(1, 8)
            for monthno in range(1, 13)]
    database.load_table("sales", [("dept", "int"), ("dweek", "int"),
                                  ("monthno", "int"),
                                  ("salesamt", "real")], rows)
    database.execute(f"CREATE MATERIALIZED VIEW v AS {VIEW}")
    return database


def _maintenance_span(db: Database, sql: str):
    db.tracer.reset()
    db.execute(sql)
    (statement,) = db.tracer.roots()
    (span,) = statement.find("view-maintenance")
    return span.attrs


def _refuse(*args, **kwargs):
    raise AssertionError("a write that changes no group derived the "
                         "whole view")


def test_an_update_of_one_dept_rederives_its_84_rows(db, monkeypatch):
    monkeypatch.setattr(rewrite, "derive", _refuse)
    attrs = _maintenance_span(
        db, "UPDATE sales SET salesamt = salesamt + 1 WHERE dept = 5")
    assert (attrs["mode"], attrs["groups"], attrs["rederived"]) \
        == ("delta", 8400, 84)


def test_an_insert_into_existing_groups_rederives_their_depts(
        db, monkeypatch):
    monkeypatch.setattr(rewrite, "derive", _refuse)
    attrs = _maintenance_span(
        db, "INSERT INTO sales VALUES (7, 1, 1, 2.0), (9, 3, 4, 1.0)")
    assert (attrs["groups"], attrs["rederived"]) == (8400, 168)


def test_a_write_that_touches_no_group_rederives_nothing(db):
    attrs = _maintenance_span(
        db, "UPDATE sales SET salesamt = 0.0 WHERE dept > 100")
    assert (attrs["groups"], attrs["rederived"]) == (8400, 0)


def test_a_birth_derives_every_row(db):
    attrs = _maintenance_span(
        db, "INSERT INTO sales VALUES (101, 1, 1, 5.0)")
    assert (attrs["mode"], attrs["groups"], attrs["rederived"]) \
        == ("delta", 8401, 8401)
