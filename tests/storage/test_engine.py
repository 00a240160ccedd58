"""Disk-backend end-to-end tests: durability, recovery, EXPLAIN,
stats accounting, checkpoint reclamation and configuration errors."""

import gc
import json
import os
import weakref

import pytest

from repro import Database
from repro.engine.catalog import IndexDefinition
from repro.errors import StorageError
from tests.conftest import PAPER_SALES_ROWS

SALES_SCHEMA = [("rid", "int"), ("state", "varchar"),
                ("city", "varchar"), ("salesamt", "real")]


def _disk_db(path, **kwargs):
    kwargs.setdefault("pool_pages", 8)
    kwargs.setdefault("page_size", 512)
    return Database(storage="disk", storage_path=str(path), **kwargs)


def _load_sales(db):
    db.load_table("sales", SALES_SCHEMA, PAPER_SALES_ROWS,
                  primary_key=["rid"])


# ----------------------------------------------------------------------
# Durability and recovery
# ----------------------------------------------------------------------
def test_results_match_memory_backend(tmp_path):
    query = ("SELECT state, SUM(salesamt) AS total FROM sales "
             "GROUP BY state ORDER BY state")
    mem = Database()
    _load_sales(mem)
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        assert db.query(query) == mem.query(query)


def test_dml_survives_reopen(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.execute("UPDATE sales SET salesamt = 99.0 WHERE rid = 1")
        db.execute("DELETE FROM sales WHERE state = 'TX'")
        expected = db.query("SELECT * FROM sales ORDER BY rid")
    with _disk_db(tmp_path) as db:
        assert db.query("SELECT * FROM sales ORDER BY rid") == expected


def test_views_and_indexes_recovered(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.execute("CREATE VIEW ca_sales AS SELECT * FROM sales "
                   "WHERE state = 'CA'")
        db.execute("CREATE INDEX idx_state ON sales (state)")
        expected = db.query("SELECT rid FROM ca_sales ORDER BY rid")
    with _disk_db(tmp_path) as db:
        assert db.query("SELECT rid FROM ca_sales ORDER BY rid") \
            == expected
        assert dict(db.catalog.snapshot().indexes) == {
            "idx_state": IndexDefinition("idx_state", "sales",
                                         ("state",))}


def test_drop_table_survives_reopen(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.load_table("other", [("a", "int")], [(1,)])
        db.drop_table("other")
    with _disk_db(tmp_path) as db:
        assert db.table_names() == ["sales"]


def test_abandon_recovers_committed_state(tmp_path):
    # abandon() releases handles without checkpointing -- the on-disk
    # state is what a kill would leave; reopen must replay the WAL.
    db = _disk_db(tmp_path)
    _load_sales(db)
    db.execute("UPDATE sales SET salesamt = 7.0 WHERE rid = 2")
    expected = db.query("SELECT * FROM sales ORDER BY rid")
    db.storage_engine.abandon()
    with _disk_db(tmp_path) as db:
        assert db.query("SELECT * FROM sales ORDER BY rid") == expected


def test_page_size_mismatch_rejected(tmp_path):
    with _disk_db(tmp_path, page_size=512):
        pass
    with pytest.raises(StorageError, match="page_size"):
        _disk_db(tmp_path, page_size=1024)


def test_unreadable_checkpoint_rejected(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
    with open(os.path.join(tmp_path, "checkpoint.json"), "w") as fh:
        fh.write("{not json")
    with pytest.raises(StorageError, match="unreadable checkpoint"):
        _disk_db(tmp_path)


# ----------------------------------------------------------------------
# Checkpoint reclamation
# ----------------------------------------------------------------------
def test_checkpoint_truncates_wal_and_reclaims_pages(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        # Each UPDATE shadow-writes the whole table; its old pages
        # become garbage reclaimable only at the next checkpoint.
        for value in (1.0, 2.0, 3.0):
            db.execute(f"UPDATE sales SET salesamt = {value} "
                       f"WHERE rid = 1")
        assert db.storage_info()["wal_bytes"] > 0
        allocated = db.storage_info()["allocated_pages"]
        db.checkpoint()
        info = db.storage_info()
        assert info["wal_bytes"] == 0
        assert info["free_pages"] > 0
        assert info["allocated_pages"] == allocated
        # Reclaimed pages are reused, not appended after.
        db.execute("UPDATE sales SET salesamt = 4.0 WHERE rid = 1")
        assert db.storage_info()["allocated_pages"] == allocated


def test_store_directory_stays_clean(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.checkpoint()
    assert sorted(os.listdir(tmp_path)) == \
        ["checkpoint.json", "data.pages", "wal.log"]


# ----------------------------------------------------------------------
# EXPLAIN and stats accounting
# ----------------------------------------------------------------------
def _explain_lines(db, sql):
    return [row[0] for row in db.execute(f"EXPLAIN {sql}").to_rows()]


def test_explain_reports_storage_line(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        lines = _explain_lines(db, "SELECT * FROM sales")
        storage_lines = [l for l in lines if l.startswith("storage:")]
        assert len(storage_lines) == 1
        assert storage_lines[0].startswith(
            "storage: disk page_size=512 pool=")
        # The storage line is the last plan line.
        assert lines[-1] == storage_lines[0]


def test_explain_omits_storage_line_on_memory_backend():
    db = Database()
    _load_sales(db)
    lines = _explain_lines(db, "SELECT * FROM sales")
    assert not [l for l in lines if l.startswith("storage:")]


def test_stats_ledger_invariant(tmp_path):
    with _disk_db(tmp_path, pool_pages=2) as db:
        _load_sales(db)
        for _ in range(3):
            db.query("SELECT SUM(salesamt) FROM sales")
        stats = db.stats
        assert stats.storage_page_fetches > 0
        assert stats.storage_pool_hits + stats.storage_page_reads \
            == stats.storage_page_fetches
        # The ledger counts exactly the pool's fetch traffic.
        pool = db.storage_engine.pool
        assert pool.hits + pool.misses >= stats.storage_page_fetches


def test_memory_backend_never_charges_storage_counters():
    db = Database()
    _load_sales(db)
    db.query("SELECT SUM(salesamt) FROM sales")
    assert db.stats.storage_page_fetches == 0


def test_tiny_pool_forces_evictions_without_changing_answers(tmp_path):
    query = "SELECT state, city, salesamt FROM sales ORDER BY rid"
    mem = Database()
    _load_sales(mem)
    with _disk_db(tmp_path, pool_pages=1, page_size=64) as db:
        _load_sales(db)
        assert db.query(query) == mem.query(query)
        assert db.storage_engine.pool.evictions > 0


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
def test_database_kwarg_validation(tmp_path):
    with pytest.raises(ValueError, match="storage must be one of"):
        Database(storage="tape")
    with pytest.raises(ValueError, match="requires storage_path"):
        Database(storage="disk")
    with pytest.raises(ValueError, match="only valid with"):
        Database(storage_path=str(tmp_path))
    with pytest.raises(ValueError, match="pool_pages"):
        _disk_db(tmp_path, pool_pages=0)


def test_storage_info_backends(tmp_path):
    assert Database().storage_info() == {"backend": "memory"}
    with _disk_db(tmp_path) as db:
        info = db.storage_info()
        assert info["backend"] == "disk"
        assert info["page_size"] == 512
        assert info["pool"]["capacity"] == 8


def test_memory_close_and_checkpoint_are_noops():
    db = Database()
    _load_sales(db)
    db.checkpoint()
    db.close()
    db.close()


def test_checkpoint_manifest_is_json(tmp_path):
    with _disk_db(tmp_path) as db:
        _load_sales(db)
    with open(os.path.join(tmp_path, "checkpoint.json")) as fh:
        state = json.load(fh)
    assert state["format"] == 1
    assert state["page_size"] == 512
    assert "sales" in state["tables"]
    entry = state["tables"]["sales"]
    assert entry["n_rows"] == len(PAPER_SALES_ROWS)
    assert set(entry["pages"]) == {"rid", "state", "city", "salesamt"}


def test_shadow_copy_keeps_the_table_version(tmp_path):
    """``persist_table`` is a copy of the same content, so it carries
    the heap table's version -- the identity a materialized view
    maintained against the heap table was stamped with."""
    from repro.engine.table import Table

    with _disk_db(tmp_path) as db:
        _load_sales(db)
        heap = Table(db.table("sales").schema,
                     {c.name: db.table("sales").column(c.name)
                      for c in db.table("sales").schema.columns})
        stored = db.storage_engine.persist_table(heap)
        assert stored.version == heap.version
        assert stored.to_rows() == heap.to_rows()


def test_replaced_version_is_freed_by_refcount(tmp_path):
    """A StoredTable is in no reference cycle: the version an UPDATE
    replaces, and the encoding memos it holds, go as soon as nothing
    (no snapshot, no savepoint) pins it, without the cyclic
    collector."""
    with _disk_db(tmp_path) as db:
        _load_sales(db)
        db.query("SELECT state, sum(salesamt) FROM sales GROUP BY state")
        old = weakref.ref(db.table("sales"))
        gc.disable()
        try:
            db.execute("UPDATE sales SET salesamt = 0 WHERE rid = 1")
            assert old() is None
        finally:
            gc.enable()
