"""The durable storage engine: shadow-paged tables + a metadata WAL.

Durability model
================
Engine tables are immutable -- every DML publishes a whole new
:class:`~repro.engine.table.Table` -- so the disk backend is *shadow
paged*, page by page: a catalog mutation first writes the page slots
of the new table's columns that differ from the version it replaces
to freshly allocated pages (sharing the old version's pages for every
other slot), fsyncs the data file when it wrote any, and only then
appends one WAL record describing the mutation (schema + page map for
table ops, definitions for views/indexes).  The record's fsync is the
commit point:

* crash **before** the record is durable (the ``storage-page-write``
  and ``storage-wal-fsync`` fault sites): the new pages are
  unreferenced garbage, the old catalog state survives, and the
  garbage is reclaimed by the next checkpoint's live-set sweep;
* crash **after** (the ``storage-commit`` site): replay redoes the
  mutation from the record, so the committed state is recovered even
  though the in-memory publish never happened.

A *checkpoint* writes the whole catalog manifest to
``checkpoint.json`` (atomically: temp file + fsync + rename), truncates
the WAL, and frees every allocated page the manifest no longer
references.  Recovery is therefore always: load the checkpoint, replay
the WAL on top (records are complete-or-truncated, see
:mod:`repro.storage.wal`), verify every live page's checksum, and hand
the catalog its recovered name spaces.

Page reclamation happens **only** at checkpoints.  In between, pages
of superseded table versions stay on disk, which is what lets catalog
savepoint rollback (and its ``restore`` WAL record) re-publish an
older table version without any copying.  A page may belong to
several versions; it is live while any manifest table references
it.

The module-level live-store registry is the leak oracle the tests and
the differential fuzzer use: every open engine registers its directory
and deregisters on :meth:`close`/:meth:`abandon`; anything left is a
leak, and :func:`stray_files` spots temp files a crashed checkpoint
left behind.
"""

from __future__ import annotations

import json
import os
import threading
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.engine import faults
from repro.engine.catalog import IndexDefinition
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import StorageError
from repro.obs import tracer as tracer_mod
from repro.storage.disk import DiskManager
from repro.storage.pages import (DEFAULT_PAGE_SIZE, changed_rows,
                                 changed_slots, chunk_payload,
                                 deserialize_column, serialize_column)
from repro.storage.pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.stored import StoredTable
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.catalog import Catalog
    from repro.engine.stats import StatsCollector

#: The files a store directory legitimately contains.
STORE_FILES = ("data.pages", "wal.log", "checkpoint.json")
#: The manifest's ``format``: 2 since column chunks are laid out
#: position-stable (row count and type in a trailer) and table
#: versions share pages.  Nothing converts an older store.
STORE_FORMAT = 2
_CHECKPOINT_TMP = "checkpoint.json.tmp"

_live_lock = threading.Lock()
_live_stores: dict[str, "StorageEngine"] = {}


def live_store_paths() -> list[str]:
    """Directories of engines opened but not yet closed/abandoned --
    the leak oracle for page stores."""
    with _live_lock:
        return sorted(_live_stores)


def force_close_all() -> None:
    """Abandon every live engine (test/fuzz cleanup)."""
    with _live_lock:
        engines = list(_live_stores.values())
    for engine in engines:
        engine.abandon()


def stray_files(path: str) -> list[str]:
    """Files in a store directory beyond the expected three (leaked
    checkpoint temps and the like).  Empty list if the directory is
    gone."""
    try:
        names = os.listdir(path)
    except FileNotFoundError:
        return []
    return sorted(n for n in names if n not in STORE_FILES)


class StorageEngine:
    """Owns one store directory: data file, WAL, checkpoint, pool."""

    def __init__(self, path: str,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 pool_pages: int = DEFAULT_POOL_PAGES,
                 registry=None,
                 stats: Optional["StatsCollector"] = None):
        os.makedirs(path, exist_ok=True)
        self.path = os.path.abspath(path)
        self.page_size = page_size
        self.disk = DiskManager(os.path.join(path, "data.pages"),
                                page_size=page_size)
        self.pool = BufferPool(self.disk, pool_pages,
                               registry=registry)
        self.wal = WriteAheadLog(os.path.join(path, "wal.log"))
        self.stats = stats
        self._checkpoint_path = os.path.join(path, "checkpoint.json")
        self._lock = threading.RLock()
        self._closed = False
        with _live_lock:
            _live_stores[self.path] = self

    # ------------------------------------------------------------------
    # Column I/O (StoredTable's read path)
    # ------------------------------------------------------------------
    def read_column(self, page_ids: list[int]):
        """Fetch a column's page run through the pool and deserialize;
        charges the fetches to the stats ledger (mirrored as a trace
        charge event, keeping the span/ledger audit exact)."""
        # Cross the site before the pool touches anything: a cancel
        # here leaves no pages pinned, so the unwind has nothing to
        # release.
        faults.cross("page-fetch")
        payloads, hits, misses = self.pool.fetch_many(page_ids)
        if self.stats is not None and (hits or misses):
            counts = {"storage_page_fetches": hits + misses}
            if hits:
                counts["storage_pool_hits"] = hits
            if misses:
                counts["storage_page_reads"] = misses
            self.stats.add(**counts)
            tracer = tracer_mod.active_tracer()
            if tracer is not None and tracer.enabled:
                tracer.event("storage-fetch", kind="charge", **counts)
        return deserialize_column(bytearray().join(payloads))

    def _write_column(self, data, old=None,
                      old_ids: Sequence[int] = ()) -> tuple[list[int], int]:
        """``data``'s page run, and how many pages it wrote.  With the
        column ``old`` whose chunk lies on ``old_ids``, every page slot
        whose bytes cannot have changed keeps its old page; the rest,
        and every slot past the old run, get fresh ones."""
        capacity = self.disk.payload_capacity
        if old is None:
            chunks = chunk_payload(serialize_column(data), capacity)
            page_ids = self.disk.allocate(len(chunks))
            self.pool.write_many(page_ids, chunks)
            return page_ids, len(page_ids)
        rows = changed_rows(old, data)
        if len(old) == len(data) and not len(rows):
            return list(old_ids), 0
        raw = serialize_column(data)
        dirty = changed_slots(old, data, rows, raw, capacity)
        fresh = [slot for slot, changed in enumerate(dirty)
                 if changed or slot >= len(old_ids)]
        page_ids = list(old_ids[:len(dirty)])
        page_ids += [-1] * (len(dirty) - len(page_ids))
        allocated = self.disk.allocate(len(fresh))
        for slot, page_id in zip(fresh, allocated):
            page_ids[slot] = page_id
        # Only the slots written are cut out of the chunk.
        self.pool.write_many(allocated, [
            raw[slot * capacity:(slot + 1) * capacity] for slot in fresh])
        return page_ids, len(fresh)

    def persist_table(self, table: Table,
                      replaced: Optional[Table] = None) -> StoredTable:
        """Write ``table``'s columns to pages (a shadow copy) and
        return the page-backed equivalent.  Against ``replaced``, the
        stored version ``table`` succeeds, a column shares every page
        whose bytes it leaves unchanged and writes fresh pages for the
        rest -- never over a page a committed version reads.  Nothing
        is committed until a WAL record referencing these pages lands;
        a version that writes no page skips the data-file fsync.  The
        copy keeps the table's version (same content, same identity --
        the rule ``Table.renamed`` follows): views maintained against
        the heap table stay ``fresh()`` for the stored one."""
        old_pages = replaced.page_map() \
            if isinstance(replaced, StoredTable) else {}
        pages: dict[str, list[int]] = {}
        written = 0
        for col_def in table.schema.columns:
            key = col_def.name.lower()
            data = table.column(col_def.name)
            old, old_ids = None, old_pages.get(key, ())
            if old_ids:
                old = replaced.column(col_def.name)
                if old.sql_type != data.sql_type:
                    old, old_ids = None, ()
            pages[key], count = self._write_column(data, old, old_ids)
            written += count
        if written:
            self.disk.sync()
        return StoredTable(table.schema, self, pages, table.n_rows,
                           version=table.version)

    # ------------------------------------------------------------------
    # Commit protocol
    # ------------------------------------------------------------------
    def _commit(self, record: dict[str, Any]) -> None:
        """Append + fsync one WAL record; the injectable kill sites
        bracket the durability point: ``storage-wal-fsync`` fires just
        before the record exists (a crash there loses the mutation
        cleanly), ``storage-commit`` just after it is durable but
        before the in-memory publish (a crash there must be redone on
        reopen)."""
        self._check_open()
        faults.cross("storage-wal-fsync")
        self.wal.append(record, sync=True)
        faults.cross("storage-commit")

    # ------------------------------------------------------------------
    # Catalog mutation hooks (called by Catalog before publishing)
    # ------------------------------------------------------------------
    def on_create_table(self, table: Table,
                        replace: bool = False) -> StoredTable:
        with self._lock:
            stored = table if isinstance(table, StoredTable) \
                else self.persist_table(table)
            self._commit({"op": "create_table", "replace": replace,
                          "table": _table_entry(stored)})
            return stored

    def on_replace_table(self, table: Table,
                         replaced: Optional[Table] = None
                         ) -> StoredTable:
        """Persist ``table`` against ``replaced``, the version it
        succeeds (see :meth:`persist_table`), and commit it."""
        with self._lock:
            stored = table if isinstance(table, StoredTable) \
                else self.persist_table(table, replaced)
            self._commit({"op": "replace_table",
                          "table": _table_entry(stored)})
            return stored

    def log_drop_table(self, name: str) -> None:
        with self._lock:
            self._commit({"op": "drop_table", "name": name.lower()})

    def log_create_view(self, name: str, select,
                        replace: bool = False) -> None:
        from repro.sql.formatter import format_statement
        with self._lock:
            self._commit({"op": "create_view", "name": name.lower(),
                          "sql": format_statement(select),
                          "replace": replace})

    def log_drop_view(self, name: str) -> None:
        with self._lock:
            self._commit({"op": "drop_view", "name": name.lower()})

    def log_create_matview(self, name: str, sql: str, base: str,
                           display_name: str | None = None) -> None:
        """Materialized views are *definitions-durable*: the WAL and
        checkpoint carry the defining SQL and base-table key; the
        per-group state is rebuilt from the recovered base table at
        reopen (rebuild-on-recovery keeps the bit-identity contract
        without serializing float state)."""
        with self._lock:
            self._commit({"op": "create_matview", "name": name.lower(),
                          "display_name": display_name or name,
                          "sql": sql, "base": base})

    def log_drop_matview(self, name: str) -> None:
        with self._lock:
            self._commit({"op": "drop_matview", "name": name.lower()})

    def log_create_index(self, index: IndexDefinition) -> None:
        with self._lock:
            self._commit({"op": "create_index",
                          "index": _index_entry(index)})

    def log_drop_index(self, name: str) -> None:
        with self._lock:
            self._commit({"op": "drop_index", "name": name.lower()})

    def log_restore(self, tables: Mapping[str, Table],
                    views: Mapping[str, Any],
                    indexes: Mapping[str, IndexDefinition],
                    matviews: Mapping[str, Any] | None = None) -> None:
        """One record re-asserting the whole catalog state (savepoint
        rollback).  Every table must already be page-backed -- true by
        construction on a storage-backed catalog, where every publish
        went through the hooks above."""
        from repro.sql.formatter import format_statement
        entries = {}
        for key, table in tables.items():
            if not isinstance(table, StoredTable):
                raise StorageError(
                    f"cannot restore table {key!r}: not page-backed")
            entries[key] = _table_entry(table)
        with self._lock:
            self._commit({
                "op": "restore",
                "tables": entries,
                "views": {key: format_statement(view)
                          for key, view in views.items()},
                "indexes": [_index_entry(idx)
                            for idx in indexes.values()],
                "matviews": {key: _matview_entry(mv)
                             for key, mv in (matviews or {}).items()},
            })

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self, catalog: "Catalog") -> None:
        """Atomically persist the full manifest, truncate the WAL and
        reclaim every page the manifest no longer references."""
        with self._lock:
            self._check_open()
            snap = catalog.snapshot()
            manifest_tables = {}
            live: set[int] = set()
            for key, table in snap.tables.items():
                if not isinstance(table, StoredTable):
                    raise StorageError(
                        f"cannot checkpoint table {key!r}: not "
                        f"page-backed")
                manifest_tables[key] = _table_entry(table)
                live |= table.page_ids()
            from repro.sql.formatter import format_statement
            state = {
                "format": STORE_FORMAT,
                "page_size": self.page_size,
                "next_page_id": self.disk.next_page_id,
                "tables": manifest_tables,
                "views": {key: format_statement(view)
                          for key, view in snap.views.items()},
                "indexes": [_index_entry(idx)
                            for idx in snap.indexes.values()],
                "matviews": {key: _matview_entry(mv)
                             for key, mv in snap.matviews.items()},
            }
            tmp = os.path.join(self.path, _CHECKPOINT_TMP)
            with open(tmp, "w") as handle:
                json.dump(state, handle, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._checkpoint_path)
            _fsync_dir(self.path)
            self.wal.reset()
            dead = [page_id
                    for page_id in range(self.disk.next_page_id)
                    if page_id not in live]
            dead = sorted(set(dead) - self.disk.free_page_ids())
            if dead:
                self.disk.free(dead)
                self.pool.invalidate(dead)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def open_catalog(self, catalog: "Catalog") -> bool:
        """Recover durable state into ``catalog``; returns True when
        anything was recovered.  Ends with a checkpoint, collapsing
        the replayed WAL into a fresh manifest."""
        with self._lock:
            tables: dict[str, dict] = {}
            views: dict[str, str] = {}
            indexes: dict[str, dict] = {}
            matviews: dict[str, dict] = {}
            next_page_id = 0
            had_state = False
            if os.path.exists(self._checkpoint_path):
                had_state = True
                try:
                    with open(self._checkpoint_path) as handle:
                        state = json.load(handle)
                except ValueError as exc:
                    raise StorageError(
                        f"unreadable checkpoint "
                        f"{self._checkpoint_path!r}: {exc}") from None
                if state.get("format") != STORE_FORMAT:
                    raise StorageError(
                        f"store {self.path!r} is in format "
                        f"{state.get('format')}; this version reads "
                        f"format {STORE_FORMAT} only")
                if state.get("page_size") != self.page_size:
                    raise StorageError(
                        f"store was written with page_size="
                        f"{state.get('page_size')}, opened with "
                        f"{self.page_size}")
                tables = dict(state.get("tables", {}))
                views = dict(state.get("views", {}))
                indexes = {e["name"]: e
                           for e in state.get("indexes", [])}
                matviews = dict(state.get("matviews", {}))
                next_page_id = int(state.get("next_page_id", 0))
            records = self.wal.replay()
            had_state = had_state or bool(records)
            for record in records:
                _apply_record(record, tables, views, indexes, matviews)
            if not had_state:
                # Fresh store: nothing to recover; leave the catalog
                # alone and start from a clean checkpoint baseline.
                self.checkpoint(catalog)
                return False

            live: set[int] = set()
            for entry in tables.values():
                for ids in entry["pages"].values():
                    live |= set(ids)
            next_page_id = max([next_page_id, self.disk.next_page_id]
                               + [pid + 1 for pid in live])
            self.disk.set_allocation(
                next_page_id,
                [p for p in range(next_page_id) if p not in live])

            recovered_tables: dict[str, StoredTable] = {}
            for key, entry in tables.items():
                recovered_tables[key] = StoredTable(
                    _schema_from_entry(entry["schema"]), self,
                    entry["pages"], entry["n_rows"])
            # Torn-write detection: verify every committed page's
            # checksum now, so corruption surfaces as a typed error at
            # reopen instead of wrong data mid-query.
            for page_id in sorted(live):
                self.pool.fetch(page_id)

            from repro.sql.parser import parse_statement
            recovered_views = {key: parse_statement(sql)
                               for key, sql in views.items()}
            recovered_indexes: dict[str, IndexDefinition] = {}
            for key, entry in indexes.items():
                table = recovered_tables.get(entry["table"].lower())
                if table is not None:
                    recovered_indexes[key] = IndexDefinition(
                        entry["display_name"], table.name,
                        tuple(entry["columns"]))
            catalog.bootstrap(recovered_tables, recovered_views,
                              recovered_indexes)
            if matviews:
                # Rebuild (never deserialize) each materialized view
                # from its recorded definition against the recovered
                # base tables: crash recovery and clean reopen land on
                # the same state a fresh CREATE would produce.
                from repro.views.maintenance import build_matview
                recovered_matviews: dict[str, Any] = {}
                for key, entry in matviews.items():
                    if entry["base"] not in recovered_tables:
                        continue
                    select = parse_statement(entry["sql"])
                    recovered_matviews[key] = build_matview(
                        catalog, entry.get("display_name", key), select)
                catalog.bootstrap(recovered_tables, recovered_views,
                                  recovered_indexes,
                                  matviews=recovered_matviews)
            self.checkpoint(catalog)
            return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, catalog: Optional["Catalog"] = None) -> None:
        """Clean shutdown: checkpoint (when a catalog is given), then
        release file handles and deregister.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            if catalog is not None:
                self.checkpoint(catalog)
            self._teardown()

    def abandon(self) -> None:
        """Simulated kill: release handles *without* checkpointing, so
        the on-disk state is exactly what a crash would leave.
        Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._teardown()

    def _teardown(self) -> None:
        self._closed = True
        self.disk.close()
        self.wal.close()
        self.pool.clear()
        with _live_lock:
            _live_stores.pop(self.path, None)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(
                f"storage engine at {self.path!r} is closed")

    def info(self) -> dict:
        return {
            "path": self.path,
            "page_size": self.page_size,
            "allocated_pages": self.disk.next_page_id,
            "free_pages": len(self.disk.free_page_ids()),
            "wal_bytes": 0 if self._closed else self.wal.size_bytes(),
            "pool": self.pool.info(),
        }


# ----------------------------------------------------------------------
# Manifest entries
# ----------------------------------------------------------------------
def _table_entry(table: StoredTable) -> dict:
    return {
        "schema": _schema_entry(table.schema),
        "n_rows": table.n_rows,
        "pages": table.page_map(),
    }


def _schema_entry(schema: TableSchema) -> dict:
    return {
        "name": schema.name,
        "columns": [[c.name, c.sql_type.value]
                    for c in schema.columns],
        "primary_key": list(schema.primary_key),
    }


def _schema_from_entry(entry: dict) -> TableSchema:
    return TableSchema.build(
        entry["name"],
        [(name, SQLType(type_name))
         for name, type_name in entry["columns"]],
        entry.get("primary_key", ()))


def _matview_entry(mv) -> dict:
    return {
        "name": mv.key,
        "display_name": mv.definition.name,
        "sql": mv.definition.sql,
        "base": mv.definition.base_table,
    }


def _index_entry(index: IndexDefinition) -> dict:
    return {
        "name": index.name.lower(),
        "display_name": index.name,
        "table": index.table_name,
        "columns": list(index.column_names),
    }


def _apply_record(record: dict, tables: dict, views: dict,
                  indexes: dict,
                  matviews: dict | None = None) -> None:
    """Redo one WAL record against the manifest dicts (idempotent:
    records always carry the full new state of the name they touch)."""
    if matviews is None:
        matviews = {}
    op = record.get("op")
    if op in ("create_table", "replace_table"):
        entry = record["table"]
        tables[entry["schema"]["name"].lower()] = entry
    elif op == "drop_table":
        key = record["name"]
        tables.pop(key, None)
        for idx_key in [k for k, e in indexes.items()
                        if e["table"].lower() == key]:
            indexes.pop(idx_key)
        for mv_key in [k for k, e in matviews.items()
                       if e["base"] == key]:
            matviews.pop(mv_key)
    elif op == "create_view":
        views[record["name"]] = record["sql"]
    elif op == "drop_view":
        views.pop(record["name"], None)
    elif op == "create_matview":
        matviews[record["name"]] = {
            "name": record["name"],
            "display_name": record.get("display_name",
                                       record["name"]),
            "sql": record["sql"], "base": record["base"]}
    elif op == "drop_matview":
        matviews.pop(record["name"], None)
    elif op == "create_index":
        entry = record["index"]
        indexes[entry["name"]] = entry
    elif op == "drop_index":
        indexes.pop(record["name"], None)
    elif op == "restore":
        tables.clear()
        tables.update(record["tables"])
        views.clear()
        views.update(record["views"])
        indexes.clear()
        indexes.update({e["name"]: e for e in record["indexes"]})
        matviews.clear()
        matviews.update(record.get("matviews", {}))
    else:
        raise StorageError(f"unknown WAL record op {op!r}")


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
