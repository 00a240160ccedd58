"""Shared fixtures: small fact tables from the papers' examples,
plus the one leak guard every test runs under."""

from __future__ import annotations

import gc

import pytest

from repro import Database
from repro.fuzz.variants import leaks


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden trace files under tests/obs/golden "
             "instead of comparing against them")


@pytest.fixture(autouse=True)
def no_leaks(request, monkeypatch):
    """Every test must leave nothing behind -- the sweep's own leak
    post-condition (:func:`repro.fuzz.variants.leaks`): no
    ``_``-prefixed plan temp table in any :class:`Database` the test
    built (directly or via fixtures; snapshot overlays are assembled
    from their base's parts, not through ``__init__``, so the service
    suites track their readers explicitly), no open page store.
    Debris is reclaimed either way; opt out of the assertion with
    ``@pytest.mark.allow_leaks``.  Nor may a test end with the cyclic
    collector off (row building pauses it, and so do a few tests):
    that always fails, and the collector is turned back on for the
    next test."""
    created: list[Database] = []
    original = Database.__init__

    def tracking(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(Database, "__init__", tracking)
    yield
    collector_on = gc.isenabled()
    gc.enable()
    problems = leaks(created, stores=())
    assert collector_on, "the test ended with the cyclic collector off"
    if not request.node.get_closest_marker("allow_leaks"):
        assert not problems, (
            f"leaked past the test: {problems}; either a cleanup, "
            f"rollback or close() is broken or the test wants "
            f"@pytest.mark.allow_leaks")


def case_fanout(db: Database) -> tuple[int, int]:
    """Ablation A1 read off ``db``'s trace: what the ledger booked for
    its pivot families (N WHEN tests per row: the ``pivot`` span's
    ``aggregates``) and what the proposed hash dispatch would book (one
    probe per row per family: ``families`` on the
    ``group-by-aggregate`` span), both times ``input_rows`` on the
    ``group-by-build`` span beside it."""
    booked = probes = 0
    for root in db.tracer.roots():
        for build, aggregate in zip(root.find(name="group-by-build"),
                                    root.find(name="group-by-aggregate"),
                                    strict=True):
            n_rows = build.attrs["input_rows"]
            probes += aggregate.attrs["families"] * n_rows
            booked += sum(span.attrs["aggregates"] * n_rows
                          for span in aggregate.find(name="pivot"))
    return booked, probes


#: The SIGMOD paper's Table 1 example fact table.
PAPER_SALES_ROWS = [
    (1, "CA", "San Francisco", 13.0),
    (2, "CA", "San Francisco", 3.0),
    (3, "CA", "San Francisco", 67.0),
    (4, "CA", "Los Angeles", 23.0),
    (5, "TX", "Houston", 5.0),
    (6, "TX", "Houston", 35.0),
    (7, "TX", "Houston", 10.0),
    (8, "TX", "Houston", 14.0),
    (9, "TX", "Dallas", 53.0),
    (10, "TX", "Dallas", 32.0),
]


@pytest.fixture
def db() -> Database:
    return Database(keep_history=True)


@pytest.fixture
def sales_db(db: Database) -> Database:
    """A database holding the paper's Table 1 sales example."""
    db.load_table(
        "sales",
        [("rid", "int"), ("state", "varchar"), ("city", "varchar"),
         ("salesamt", "real")],
        PAPER_SALES_ROWS, primary_key=["rid"])
    return db


@pytest.fixture
def store_db(db: Database) -> Database:
    """A database matching the paper's Table 3 horizontal example:
    three stores with sales per day of week (store 4 has no Monday
    sales -- the 0% cell)."""
    data = {
        2: {"Mo": 175, "Tu": 150, "We": 200, "Th": 225, "Fr": 400,
            "Sa": 600, "Su": 750},
        4: {"Tu": 360, "We": 360, "Th": 360, "Fr": 720, "Sa": 800,
            "Su": 1400},
        7: {"Mo": 128, "Tu": 128, "We": 64, "Th": 64, "Fr": 128,
            "Sa": 560, "Su": 528},
    }
    rows = []
    rid = 0
    for store, per_day in data.items():
        for day, amount in per_day.items():
            rid += 1
            rows.append((rid, store, day, float(amount)))
    db.load_table(
        "sales",
        [("rid", "int"), ("store", "int"), ("dweek", "varchar"),
         ("salesamt", "real")],
        rows, primary_key=["rid"])
    return db


@pytest.fixture
def employee_db(db: Database) -> Database:
    """The companion paper's four-employee example (its Table 2)."""
    rows = [
        (1, "M", "Single", 30000.0),
        (2, "F", "Single", 50000.0),
        (3, "F", "Married", 40000.0),
        (4, "M", "Single", 45000.0),
    ]
    db.load_table(
        "employee",
        [("employeeid", "int"), ("gender", "varchar"),
         ("maritalstatus", "varchar"), ("salary", "real")],
        rows, primary_key=["employeeid"])
    return db
