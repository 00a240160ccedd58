"""The WAL kill-point matrix.

For every storage fault site and every sampled hit index of a DML/DDL
workload, inject a crash, simulate a kill (``abandon()`` releases the
file handles without checkpointing) and reopen the store.  The
recovery contract is *recovery-or-clean-error with zero committed-data
loss*:

* a crash **before** the commit record is durable
  (``storage-page-write`` tears a shadow page, ``storage-wal-fsync``
  dies just before the append): the faulted statement is lost cleanly
  and reopen shows exactly the pre-statement state;
* a crash **after** durability (``storage-commit``): the statement is
  either fully recovered from the WAL or rolled back by a subsequent
  durable restore record -- never a hybrid;
* in every case the prior committed tables survive bit-identically and
  the store directory holds no stray files.
"""

import os
import shutil
import tempfile

import pytest

from repro import Database
from repro.engine import faults
from repro.engine.faults import FaultInjector, FaultSpec
from repro.errors import ReproError
from repro.storage.engine import stray_files
from tests.conftest import PAPER_SALES_ROWS

STORAGE_SITES = ("storage-page-write", "storage-wal-fsync",
                 "storage-commit")

#: Statements whose commit paths the matrix kills, by test id.  Each
#: runs against a store holding the paper's sales table and a
#: ``returns`` table with an index and a materialized view on it, so
#: every catalog name space is written and the last DROP cascades.
WORKLOADS = {
    "update-sales": "UPDATE sales SET salesamt = 99.0 WHERE rid = 1",
    "insert-INTO": "INSERT INTO sales VALUES (11, 'AZ', 'Phoenix', 8.0)",
    "delete-FROM": "DELETE FROM sales WHERE state = 'CA'",
    "create-VIEW":
        "CREATE VIEW tx_sales AS SELECT * FROM sales WHERE state = 'TX'",
    "drop-TABLE": "DROP TABLE sales",
    "create-INDEX": "CREATE INDEX sales_state ON sales (state)",
    "create-MATERIALIZED":
        "CREATE MATERIALIZED VIEW sales_by_state AS "
        "SELECT state, sum(salesamt) FROM sales GROUP BY state",
    "drop-TABLE-cascade": "DROP TABLE returns",
}


def _open(path):
    return Database(storage="disk", storage_path=path,
                    pool_pages=4, page_size=256)


def _setup(path):
    db = _open(path)
    db.load_table(
        "sales",
        [("rid", "int"), ("state", "varchar"), ("city", "varchar"),
         ("salesamt", "real")],
        PAPER_SALES_ROWS, primary_key=["rid"])
    db.execute_script(
        "CREATE TABLE returns (rid INT, state VARCHAR, amt REAL); "
        "INSERT INTO returns VALUES (1, 'CA', 2.0), (2, 'TX', 3.5); "
        "CREATE INDEX returns_rid ON returns (rid); "
        "CREATE MATERIALIZED VIEW returns_by_state AS "
        "SELECT state, sum(amt) FROM returns GROUP BY state")
    return db


def _snapshot(db):
    return {
        "tables": {name: sorted(db.query(f"SELECT * FROM {name}"))
                   for name in db.table_names()},
        "views": sorted(db.catalog.view_names()),
        "indexes": sorted(db.catalog.index_names()),
        "matviews": sorted(db.catalog.matviews()),
    }


def _probe(statement, site):
    """Hit count of ``site`` while running ``statement`` fault-free."""
    tmp = tempfile.mkdtemp(prefix="repro-killpoint-probe-")
    try:
        db = _setup(tmp)
        injector = FaultInjector()
        with faults.active(injector):
            db.execute(statement)
        before_close = dict(injector.hits)
        db.close()
        return before_close.get(site, 0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _sampled(hits):
    return sorted({0, hits // 2, hits - 1})


@pytest.mark.parametrize("site", STORAGE_SITES)
@pytest.mark.parametrize("statement", list(WORKLOADS.values()),
                         ids=list(WORKLOADS))
def test_kill_point_matrix(site, statement):
    hits = _probe(statement, site)
    if hits == 0:
        # The statement never reaches this site (e.g. CREATE VIEW
        # writes no pages); nothing to kill.
        assert site == "storage-page-write"
        return
    for index in _sampled(hits):
        tmp = tempfile.mkdtemp(prefix="repro-killpoint-")
        try:
            db = _setup(tmp)
            before = _snapshot(db)
            injector = FaultInjector(
                [FaultSpec(site, error="crash", at=index, times=1)])
            with faults.active(injector):
                with pytest.raises(ReproError):
                    db.execute(statement)
            assert injector.faults_raised >= 1
            # Simulated kill: no checkpoint, no clean shutdown.
            db.storage_engine.abandon()

            with _open(tmp) as recovered:
                state = _snapshot(recovered)
                if site == "storage-commit":
                    after = _after_state(statement)
                    assert state in (before, after), (
                        f"{site}#{index}: recovered state is neither "
                        f"the pre- nor the post-statement catalog")
                else:
                    assert state == before, (
                        f"{site}#{index}: a pre-durability crash must "
                        f"lose the statement cleanly")
            assert stray_files(tmp) == []
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _after_state(statement):
    """The post-statement snapshot, computed on a clean store."""
    tmp = tempfile.mkdtemp(prefix="repro-killpoint-after-")
    try:
        db = _setup(tmp)
        db.execute(statement)
        after = _snapshot(db)
        db.close()
        return after
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_matrix_covers_every_site():
    """Sanity: each kill site is actually reachable from at least one
    workload (a silent zero-hit matrix would prove nothing)."""
    for site in STORAGE_SITES:
        assert any(_probe(statement, site) > 0
                   for statement in WORKLOADS.values()), (
            f"no workload ever reaches {site}")


def test_kill_during_load_leaves_fresh_store_openable(tmp_path):
    """A crash while the very first table is being persisted must
    leave a store that reopens empty (the torn shadow pages are
    unreferenced garbage)."""
    path = str(tmp_path)
    db = _open(path)
    injector = FaultInjector(
        [FaultSpec("storage-page-write", error="crash", at=1,
                   times=1)])
    with faults.active(injector):
        with pytest.raises(ReproError):
            db.load_table(
                "sales",
                [("rid", "int"), ("state", "varchar"),
                 ("city", "varchar"), ("salesamt", "real")],
                PAPER_SALES_ROWS, primary_key=["rid"])
    db.storage_engine.abandon()
    with _open(path) as recovered:
        assert recovered.table_names() == []
    assert stray_files(path) == []
