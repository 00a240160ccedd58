"""The durable storage engine: shadow-paged tables + a metadata WAL.

Durability model
================
Engine tables are immutable -- every DML publishes a whole new
:class:`~repro.engine.table.Table` -- so the disk backend is *shadow
paged*, page by page.  The catalog calls the store from one place,
its publish (:meth:`StorageEngine.commit`): the new table versions'
changed page slots are written to freshly allocated pages (every
other slot shares the replaced version's page), the data file is
fsynced when any page was written, and then one WAL record holds
every manifest entry that differs from what is durable.  The
record's fsync is the commit point:

* crash **before** the record is durable (the ``storage-page-write``
  and ``storage-wal-fsync`` fault sites): the new pages are
  unreferenced garbage, the old catalog state survives, and the
  garbage is reclaimed by the next checkpoint;
* crash **after** (the ``storage-commit`` site): replay merges the
  record, so the committed state is recovered even though the
  in-memory publish never happened.  A savepoint rollback is a
  publish too: its record is the savepoint's difference from the
  durable state, which heals a statement that committed halfway.

A *checkpoint* writes the durable manifest to ``checkpoint.json``
(atomically: temp file + fsync + rename), truncates the WAL, and
frees every allocated page no live table version names.  Recovery is
therefore always: load the checkpoint, merge the WAL's records on top
(set or delete each entry; records are complete-or-truncated, see
:mod:`repro.storage.wal`), verify every live page's checksum, publish,
and checkpoint.

Page reclamation happens **only** at checkpoints.  In between, pages
of superseded table versions stay on disk, which is what lets
savepoint rollback re-publish an older version without copying.  A
page may belong to several versions; it is live while any
:class:`StoredTable` naming it is -- the current one, one a snapshot
reader pins, one a savepoint holds.  A restart keeps only the
manifest's tables, because no reader survives it.

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
import weakref
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.engine import faults
from repro.engine.catalog import IndexDefinition
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import StorageError
from repro.obs import tracer as tracer_mod
from repro.sql.formatter import format_statement
from repro.sql.parser import parse_statement
from repro.storage.disk import DiskManager
from repro.storage.pages import (DEFAULT_PAGE_SIZE, append_start,
                                 appended_chunk, changed_rows,
                                 changed_slots, chunk_payload,
                                 deserialize_column, gather_rows,
                                 serialize_column)
from repro.storage.pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.stored import Appended, Chunk, StoredTable
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.catalog import Catalog
    from repro.engine.stats import StatsCollector

#: The files a store directory legitimately contains.
STORE_FILES = ("data.pages", "wal.log", "checkpoint.json")
#: The manifest's ``format``: 3 since a WAL record is one
#: ``{space: {key: entry or null}}`` difference (2 laid column chunks
#: out position-stable and shared pages between versions).  Nothing
#: converts an older store.
STORE_FORMAT = 3
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
        #: Name space -> key -> ``(object, entry)``: what the WAL and
        #: checkpoint hold as durable (see :meth:`commit`).
        self._durable: dict[str, dict[str, tuple]] = {
            space: {} for space in _ENTRIES}
        #: Every StoredTable of this store still alive: the checkpoint
        #: frees only pages none of them names.
        self._versions: "weakref.WeakSet[StoredTable]" = weakref.WeakSet()
        self._versions_lock = threading.Lock()
        with _live_lock:
            _live_stores[self.path] = self

    # ------------------------------------------------------------------
    # Column I/O (StoredTable's read path, persist_table's write path)
    # ------------------------------------------------------------------
    def fetch_pages(self, page_ids: Sequence[int]) -> list[bytes]:
        """Fetch pages through the pool; charges the fetches to the
        stats ledger (mirrored as a trace charge event, keeping the
        span/ledger audit exact)."""
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
        return payloads

    def read_column(self, page_ids: Sequence[int]):
        """A whole column chunk's page run, deserialized."""
        return deserialize_column(
            bytearray().join(self.fetch_pages(page_ids)))

    def gather_column(self, chunk: Chunk, positions):
        """Rows ``positions`` of ``chunk``, fetching only the page
        slots that hold them (:func:`repro.storage.pages.gather_rows`,
        which says what it returns)."""
        return gather_rows(
            chunk.sql_type, chunk.rows, positions,
            self.disk.payload_capacity, len(chunk.ids),
            lambda slots: self.fetch_pages([chunk.ids[s] for s in slots]))

    def _write_column(self, data, old: Optional[Chunk] = None
                      ) -> tuple[Chunk, int]:
        """``data``'s chunk, and how many pages it wrote.  Against the
        chunk ``old``, every page slot whose bytes cannot have changed
        keeps its old page; the rest, and every slot past the old run,
        get fresh ones.  Unchanged, the column is ``old`` itself."""
        capacity = self.disk.payload_capacity
        if old is None:
            chunks = chunk_payload(serialize_column(data), capacity)
            page_ids = self.disk.allocate(len(chunks))
            self.pool.write_many(page_ids, chunks)
            return Chunk(page_ids, data.sql_type, len(data)), len(page_ids)
        before = old.read(self)
        rows = changed_rows(before, data)
        if len(before) == len(data) and not len(rows):
            return old, 0
        raw = serialize_column(data)
        dirty = changed_slots(before, data, rows, raw, capacity)
        fresh = [slot for slot, changed in enumerate(dirty)
                 if changed or slot >= len(old.ids)]
        page_ids = old.ids[:len(dirty)]
        page_ids += [-1] * (len(dirty) - len(page_ids))
        allocated = self.disk.allocate(len(fresh))
        for slot, page_id in zip(fresh, allocated):
            page_ids[slot] = page_id
        # Only the slots written are cut out of the chunk.
        self.pool.write_many(allocated, [
            raw[slot * capacity:(slot + 1) * capacity] for slot in fresh])
        return Chunk(page_ids, data.sql_type, len(data)), len(fresh)

    def _append_chunk(self, old: Chunk, tail) -> tuple[Chunk, int]:
        """``old``'s chunk with ``tail``'s rows appended, and how many
        pages it wrote: every slot before the one the tail starts in is
        kept; only the slots from there on are read, then written to
        fresh pages (for a fixed-width column, the boundary page and
        the null bitmap's)."""
        capacity = self.disk.payload_capacity
        first = append_start(old.sql_type, old.rows, capacity)
        suffix = bytearray().join(self.fetch_pages(old.ids[first:]))
        chunks = chunk_payload(appended_chunk(
            old.sql_type, old.rows, first * capacity, suffix, tail),
            capacity)
        page_ids = self.disk.allocate(len(chunks))
        self.pool.write_many(page_ids, chunks)
        return (Chunk(old.ids[:first] + page_ids, old.sql_type,
                      old.rows + len(tail)), len(page_ids))

    def persist_table(self, table: Table,
                      replaced: Optional[Table] = None) -> StoredTable:
        """Write ``table``'s columns to pages (a shadow copy) and
        return the page-backed equivalent, column by column:

        * a chunk (a column a DML left alone) is kept, unread;
        * a chunk with rows appended is rewritten from the slot its
          tail starts in (:meth:`_append_chunk`);
        * any other column is compared with ``replaced``'s -- the
          stored version ``table`` succeeds -- and shares every page
          whose bytes it leaves unchanged (:meth:`_write_column`).

        Nothing is written over a page a committed version reads, and
        nothing is committed until a WAL record referencing these
        pages lands; a version that writes no page skips the data-file
        fsync.  The copy keeps the table's version (same content, same
        identity -- the rule ``Table.renamed`` follows): views
        maintained against the pending table stay ``fresh()`` for the
        stored one."""
        sources = table._sources if isinstance(table, StoredTable) else {}
        old = replaced._sources if isinstance(replaced, StoredTable) \
            else {}
        chunks: dict[str, Chunk] = {}
        written = 0
        for col_def in table.schema.columns:
            key = col_def.name.lower()
            source = sources.get(key)
            if type(source) is Chunk:
                chunks[key], count = source, 0
            elif type(source) is Appended:
                chunks[key], count = self._append_chunk(source.chunk,
                                                        source.tail)
            else:
                base = old.get(key)
                if type(base) is not Chunk \
                        or base.sql_type != col_def.sql_type:
                    base = None
                chunks[key], count = self._write_column(
                    table.column(col_def.name), base)
            written += count
        if written:
            self.disk.sync()
        return StoredTable._over(table.schema, self, chunks, table.n_rows,
                                 version=table.version)

    # ------------------------------------------------------------------
    # Commit protocol
    # ------------------------------------------------------------------
    def commit(self, before: Mapping[str, Mapping[str, Any]],
               after: Mapping[str, Mapping[str, Any]]
               ) -> dict[str, Table]:
        """Make one catalog publish durable; returns ``after``'s
        tables, every one page-backed.

        ``before`` and ``after`` are the catalog's name spaces
        (``tables``, ``views``, ``indexes``, ``matviews``) around the
        publish.  A table not yet on pages is persisted against the
        version it replaces.  Then one WAL record ``{space: {key:
        entry or null}}`` logs every entry that differs from the
        durable manifest; a publish that differs in nothing writes
        nothing.  The kill sites bracket the record's fsync:
        ``storage-wal-fsync`` fires just before it exists (a crash
        there loses the publish cleanly), ``storage-commit`` just
        after it is durable but before the in-memory publish (a crash
        there is redone on reopen)."""
        with self._lock:
            self._check_open()
            replaced = before["tables"]
            tables = {key: table if isinstance(table, StoredTable)
                      and table.on_pages
                      else self.persist_table(table, replaced.get(key))
                      for key, table in after["tables"].items()}
            durable, record = {}, {}
            for space, objects in dict(after, tables=tables).items():
                durable[space], changes = self._diff(space, objects)
                if changes:
                    record[space] = changes
            if record:
                faults.cross("storage-wal-fsync")
                self.wal.append(record, sync=True)
            self._durable = durable
            if record:
                faults.cross("storage-commit")
            return tables

    def _diff(self, space: str, objects: Mapping[str, Any]
              ) -> tuple[dict[str, tuple], dict[str, Any]]:
        """``objects`` as durable ``(object, entry)`` pairs, and the
        entries that differ from the durable manifest (``None`` for a
        key that is gone).  A table, view or index is unchanged while
        it is the durable object; a materialized view while its
        definition entry is (maintenance and REFRESH publish new
        objects of one definition)."""
        held = self._durable[space]
        durable, changes = {}, {}
        for key, obj in objects.items():
            kept = held.get(key)
            if kept is None or kept[0] is not obj:
                entry = _ENTRIES[space](obj)
                if kept is None or space != "matviews" \
                        or kept[1] != entry:
                    changes[key] = entry
                kept = (obj, entry)
            durable[key] = kept
        changes.update(dict.fromkeys(held.keys() - objects.keys()))
        return durable, changes

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def register(self, table: StoredTable) -> None:
        """Count ``table``'s pages live while it lives (every
        :class:`StoredTable` calls this when it is made)."""
        with self._versions_lock:
            self._versions.add(table)

    def checkpoint(self) -> None:
        """Atomically write the durable manifest, truncate the WAL and
        free every page no live table version names: current, pinned
        by a snapshot or held by a savepoint."""
        with self._lock:
            self._check_open()
            state = {space: {key: entry for key, (_, entry)
                             in held.items()}
                     for space, held in self._durable.items()}
            state.update(format=STORE_FORMAT, page_size=self.page_size)
            tmp = os.path.join(self.path, _CHECKPOINT_TMP)
            with open(tmp, "w") as handle:
                json.dump(state, handle, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._checkpoint_path)
            _fsync_dir(self.path)
            self.wal.reset()
            with self._versions_lock:
                versions = list(self._versions)
            live = set().union(*(table.page_ids() for table in versions))
            dead = sorted(set(range(self.disk.next_page_id)) - live
                          - self.disk.free_page_ids())
            if dead:
                self.disk.free(dead)
                self.pool.invalidate(dead)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def open_catalog(self, catalog: "Catalog") -> None:
        """Recover durable state into ``catalog``: load the
        checkpoint, merge every WAL record into it, verify every live
        page and publish.  Ends with a checkpoint, collapsing the
        replayed WAL into a fresh manifest."""
        with self._lock:
            manifest: dict[str, dict] = {space: {} for space in _ENTRIES}
            had_state = os.path.exists(self._checkpoint_path)
            if had_state:
                state = self._read_checkpoint()
                for space in manifest:
                    manifest[space].update(state[space])
            records = self.wal.replay()
            for record in records:
                for space, entries in manifest.items():
                    for key, entry in record.get(space, {}).items():
                        if entry is None:
                            entries.pop(key, None)
                        else:
                            entries[key] = entry
            if not (had_state or records):
                # Fresh store: start from a clean checkpoint baseline.
                self.checkpoint()
                return
            tables = {key: StoredTable(_schema_from_entry(entry["schema"]),
                                       self, entry["pages"],
                                       entry["n_rows"])
                      for key, entry in manifest["tables"].items()}
            # Torn-write detection: verify every committed page's
            # checksum now, so corruption surfaces as a typed error at
            # reopen instead of wrong data mid-query.
            for page_id in sorted(set().union(
                    *(table.page_ids() for table in tables.values()))):
                self.pool.fetch(page_id)
            views = {key: parse_statement(sql)
                     for key, sql in manifest["views"].items()}
            indexes = {key: IndexDefinition(entry["display_name"],
                                            entry["table"],
                                            tuple(entry["columns"]))
                       for key, entry in manifest["indexes"].items()}
            recovered = {"tables": tables, "views": views,
                         "indexes": indexes, "matviews": {}}
            self._durable = {
                space: {key: (obj, manifest[space][key])
                        for key, obj in objects.items()}
                for space, objects in recovered.items()}
            catalog.bootstrap(tables, views, indexes)
            if manifest["matviews"]:
                # Rebuild (never deserialize) each materialized view
                # from its definition against the recovered base
                # tables: crash recovery and clean reopen land on the
                # state a fresh CREATE would produce.
                from repro.views.maintenance import build_matview
                self._durable["matviews"] = {
                    key: (None, entry)
                    for key, entry in manifest["matviews"].items()}
                catalog.publish_matviews({
                    key: build_matview(catalog, entry["display_name"],
                                       parse_statement(entry["sql"]))
                    for key, entry in manifest["matviews"].items()})
            self.checkpoint()

    def _read_checkpoint(self) -> dict:
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
        return state

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Clean shutdown: checkpoint, then release file handles and
        deregister.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self.checkpoint()
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
        "display_name": mv.definition.name,
        "sql": mv.definition.sql,
        "base": mv.definition.base_table,
    }


def _index_entry(index: IndexDefinition) -> dict:
    return {
        "display_name": index.name,
        "table": index.table_name,
        "columns": list(index.column_names),
    }


#: Each name space's manifest entry of an object.
_ENTRIES = {"tables": _table_entry, "views": format_statement,
            "indexes": _index_entry, "matviews": _matview_entry}


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
