"""Every operator runs inside the executor's one boundary, so each
shows up as a ``kind="operator"`` span: the layers that used to be
dark (scan, filter, window, DISTINCT, sort, projection, the DML
write) are lit, nothing outlasts its statement, and the charge events
under the new spans still sum to the ledger."""

import pytest

from repro import Database
from repro.obs.clock import ManualClock
from repro.obs.tracer import audit_statement_span, validate_span_tree


@pytest.fixture
def db():
    database = Database(tracing=True, clock=ManualClock())
    database.execute("CREATE TABLE t (g INT, d VARCHAR, m REAL)")
    database.execute(
        "INSERT INTO t VALUES (1, 'a', 10.0), (1, 'b', 30.0), "
        "(2, 'a', 5.0), (2, 'a', 5.0)")
    database.execute("CREATE TABLE u (g INT, m REAL)")
    database.tracer.reset()
    return database


def _operators(db, sql):
    """Operator span names of one statement, in open order; the tree
    is validated and audited on the way."""
    db.tracer.reset()
    db.execute(sql)
    (statement,) = db.tracer.roots()
    validate_span_tree(statement)
    audit_statement_span(statement)
    for span in statement.find(kind="operator"):
        assert statement.start <= span.start \
            and span.end <= statement.end, span.name
    return [span.name for span in statement.find(kind="operator")]


@pytest.mark.parametrize("sql, expected", [
    ("SELECT g FROM t WHERE m > 5", ["scan", "filter", "projection"]),
    ("SELECT g, m / sum(m) OVER (PARTITION BY g) FROM t",
     ["scan", "projection", "window"]),
    ("SELECT DISTINCT g FROM t ORDER BY g DESC LIMIT 1",
     ["scan", "projection", "distinct", "sort"]),
    ("SELECT t.g FROM t JOIN t s ON t.g = s.g AND t.m < s.m",
     ["scan", "scan", "join", "filter", "projection"]),
    ("INSERT INTO u SELECT g, sum(m) FROM t GROUP BY g",
     ["scan", "group-by-build", "group-by-aggregate", "projection",
      "dml-write"]),
    ("INSERT INTO u VALUES (9, 1.0)", ["dml-write"]),
    ("UPDATE t SET m = m + 1 WHERE g = 1",
     ["scan", "filter", "dml-write"]),
    ("DELETE FROM t WHERE d = 'b'", ["scan", "filter", "dml-write"]),
    ("CREATE TABLE w AS SELECT g FROM t", ["scan", "projection",
                                           "dml-write"]),
    ("SELECT s.total FROM (SELECT sum(m) AS total FROM t) s",
     ["scan", "scan", "group-by-build", "group-by-aggregate",
      "projection", "projection"]),
])
def test_statement_shows_its_operators(db, sql, expected):
    assert _operators(db, sql) == expected


def test_view_maintenance_is_an_operator_on_the_injected_clock(db):
    db.execute("CREATE MATERIALIZED VIEW v AS "
               "SELECT g, sum(m) FROM t GROUP BY g")
    assert _operators(db, "INSERT INTO t VALUES (3, 'c', 1.0)") \
        == ["dml-write", "view-maintenance"]
    (statement,) = db.tracer.roots()
    (span,) = statement.find("view-maintenance")
    assert span.attrs["mode"] == "delta" and span.attrs["view"] == "v"
    # The gauge is the two clock reads inside the span: one tick.
    gauge = db.metrics.gauge("view_maintenance_seconds", view="v",
                             mode="delta")
    assert gauge.value == pytest.approx(0.001)
    assert span.duration == pytest.approx(0.003)


def test_charges_nest_under_the_operator_that_made_them(db):
    db.tracer.reset()
    db.execute("SELECT t.g FROM t, u WHERE t.g = u.g")
    (statement,) = db.tracer.roots()
    for charge in statement.find(kind="charge"):
        (parent,) = [s for s in statement.walk()
                     if charge in s.children]
        assert parent.kind == "operator", charge.name
    scan_rows = [s.children[0].attrs["rows_scanned"]
                 for s in statement.find("scan", kind="operator")]
    assert scan_rows == [4, 0]
