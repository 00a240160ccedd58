"""The catalog: named tables, their index definitions, and DBMS limits.

The catalog enforces the limits the paper calls out as practical issues
for horizontal aggregations: the maximum number of columns per table
and the maximum identifier length (DMKD Section 3.6).  Both are
configurable so tests and the vertical-partitioning machinery can
exercise the failure paths at small sizes.

Concurrency model (the substrate under :mod:`repro.service`):

* **Copy-on-write publication.**  Every mutating operation builds a
  *new* name-space dict (and, for DML, new table objects) and
  swaps it in atomically under :attr:`_publish_lock`.  Published dicts
  and the objects inside them are never mutated again, so any thread
  that captured a reference keeps a frozen, internally consistent view
  for free.
* **Snapshots.**  :meth:`snapshot` captures the current dicts plus a
  monotonically increasing :attr:`version` as an immutable
  :class:`CatalogSnapshot` -- an O(1) operation (no copying) thanks to
  copy-on-write.  :meth:`overlay` rehydrates a snapshot into a
  private overlay catalog that snapshot-isolated readers can run whole
  multi-statement plans against (their temp tables never touch the
  shared catalog).
* **Writers serialize elsewhere.**  The catalog does not arbitrate
  write-write conflicts; the Database statement lock and the service
  writer lock do.  The publish lock only makes each individual swap
  (and each snapshot capture) atomic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.engine.schema import (DEFAULT_MAX_COLUMNS,
                                 DEFAULT_MAX_NAME_LENGTH, TableSchema)
from repro.engine.table import Table
from repro.errors import CatalogError


@dataclass(frozen=True)
class IndexDefinition:
    """A ``CREATE INDEX`` as the catalog keeps it: a definition and
    nothing more.  No join reads it -- every join builds its own side,
    and DESIGN.md section 2 says why the paper's index lever is kept as
    SQL text only -- but the statement stays honest: names collide,
    columns must exist, the index drops with its table, rolls back with
    a savepoint and persists in a disk store."""

    name: str
    table_name: str
    #: indexed columns, lower-cased, in declaration order
    column_names: tuple[str, ...]


@dataclass(frozen=True)
class CatalogSnapshot:
    """An immutable, internally consistent view of the catalog.

    ``version`` is the catalog's mutation counter at capture time: two
    snapshots with equal versions saw byte-identical catalogs.  The
    mappings are read-only proxies over the published (never again
    mutated) dicts, so holding a snapshot costs no copying and pins the
    exact table/index/view objects.  That makes it the savepoint too:
    :meth:`Catalog.rollback` restores the captured objects as-is.
    """

    version: int
    tables: Mapping[str, Table]
    views: Mapping[str, object]
    indexes: Mapping[str, IndexDefinition]
    matviews: Mapping[str, object]

    @property
    def fingerprint(self) -> tuple:
        """Object identities per name space.  Tables are immutable, so
        "same name bound to the same object" implies "same content":
        equal fingerprints mean the catalog is byte-identical from a
        reader's point of view (the snapshot pins the objects, so
        ``id`` values cannot be recycled while it is held)."""
        return (tuple(sorted((k, id(t)) for k, t in self.tables.items())),
                tuple(sorted(self.views)),
                tuple(sorted((k, id(i)) for k, i in self.indexes.items())),
                tuple(sorted((k, id(m))
                             for k, m in self.matviews.items())))


class Catalog:
    """Case-insensitive registry of tables and their indexes.

    Every table the catalog publishes is sealed (:meth:`Table.seal`):
    its columns get the encoding memos that let a query encode each
    base-table column once.  A memo dies with its column, so no
    lifecycle event has anything to invalidate.
    """

    def __init__(self, max_columns: int = DEFAULT_MAX_COLUMNS,
                 max_name_length: int = DEFAULT_MAX_NAME_LENGTH):
        self.max_columns = max_columns
        self.max_name_length = max_name_length
        #: Mutation counter: bumped once per mutating operation (not
        #: per statement), so snapshot versions totally order catalog
        #: states.
        self.version = 0
        #: Optional :class:`~repro.storage.engine.StorageEngine`.  When
        #: set (by the Database, before any table exists), every
        #: mutating operation commits through the engine's write-ahead
        #: log *before* publishing in memory, and tables are persisted
        #: to pages on the way in.  Overlay catalogs built by
        #: :meth:`overlay` leave it ``None``: snapshot-isolated
        #: temp DDL stays in memory (published StoredTables keep their
        #: own engine reference, so overlay reads still work).
        self.storage = None
        self._publish_lock = threading.Lock()
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, IndexDefinition] = {}
        self._views: dict[str, object] = {}  # name -> ast.Select
        # name -> repro.views.state.MaterializedView (immutable;
        # maintenance publishes replacement objects, never mutates)
        self._matviews: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Copy-on-write publication
    # ------------------------------------------------------------------
    def _publish(self, tables: dict[str, Table] | None = None,
                 views: dict[str, object] | None = None,
                 indexes: dict[str, IndexDefinition] | None = None,
                 matviews: dict[str, object] | None = None) -> None:
        """Atomically swap in replacement name-space dicts.

        Callers pass *new* dict objects (never the published ones
        mutated in place); the published dicts stay frozen forever, so
        concurrent snapshot holders are unaffected.
        """
        with self._publish_lock:
            if tables is not None:
                self._tables = tables
            if views is not None:
                self._views = views
            if indexes is not None:
                self._indexes = indexes
            if matviews is not None:
                self._matviews = matviews
            self.version += 1

    def snapshot(self) -> CatalogSnapshot:
        """Capture the current catalog state; O(1), never blocks
        readers (the publish lock is held only for the reference
        reads, so capture can't interleave with a half-applied swap).
        """
        with self._publish_lock:
            tables, views, indexes, matviews = \
                self._tables, self._views, self._indexes, self._matviews
            version = self.version
        return CatalogSnapshot(
            version=version,
            tables=MappingProxyType(tables),
            views=MappingProxyType(views),
            indexes=MappingProxyType(indexes),
            matviews=MappingProxyType(matviews))

    def overlay(self, snapshot: CatalogSnapshot) -> "Catalog":
        """A private overlay of this catalog seeded from ``snapshot``.

        The overlay starts with the snapshot's exact objects and keeps
        full catalog semantics (this catalog's limits included), so a
        snapshot-isolated reader can run multi-statement plans (temp
        CREATE/INSERT/UPDATE/DROP) without any of it becoming visible
        outside -- the copy-on-write discipline guarantees the shared
        objects are never mutated.
        """
        overlay = Catalog(self.max_columns, self.max_name_length)
        overlay._tables = dict(snapshot.tables)
        overlay._views = dict(snapshot.views)
        overlay._indexes = dict(snapshot.indexes)
        overlay._matviews = dict(snapshot.matviews)
        overlay.version = snapshot.version
        return overlay

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def validate_schema(self, schema: TableSchema) -> None:
        """Raise CatalogError when a schema violates a DBMS limit."""
        if schema.width() > self.max_columns:
            raise CatalogError(
                f"table {schema.name!r} would have {schema.width()} "
                f"columns; the maximum is {self.max_columns}")
        for name in [schema.name] + schema.column_names():
            if len(name) > self.max_name_length:
                raise CatalogError(
                    f"identifier {name!r} is {len(name)} characters; "
                    f"the maximum is {self.max_name_length}")

    def create_table(self, table: Table, replace: bool = False) -> None:
        key = table.name.lower()
        if key in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already exists")
        if key in self._views:
            raise CatalogError(f"{table.name!r} is a view")
        if key in self._matviews:
            raise CatalogError(f"{table.name!r} is a materialized view")
        self.validate_schema(table.schema)
        if self.storage is not None:
            # Persist + WAL-commit before the in-memory publish: a
            # crash in between redoes the publish on reopen.
            table = self.storage.on_create_table(table, replace=replace)
        table.seal()
        tables = dict(self._tables)
        tables[key] = table
        self._publish(tables=tables)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table: {name!r}") from None

    def replace_table(self, table: Table,
                      matviews: Mapping[str, object] | None = None
                      ) -> None:
        """Swap in new contents for an existing table (its index
        definitions stand).

        ``matviews`` optionally carries delta-maintained replacement
        materialized views (key -> MaterializedView); they are
        published in the *same* atomic swap as the table, so no reader
        can observe the new table with a stale view object (or vice
        versa)."""
        key = table.name.lower()
        if key not in self._tables:
            raise CatalogError(f"no such table: {table.name!r}")
        if self.storage is not None:
            table = self.storage.on_replace_table(table, self._tables[key])
        table.seal()
        tables = dict(self._tables)
        tables[key] = table
        merged = None
        if matviews:
            merged = dict(self._matviews)
            merged.update(matviews)
        self._publish(tables=tables, matviews=merged)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no such table: {name!r}")
        if self.storage is not None:
            self.storage.log_drop_table(key)
        tables = dict(self._tables)
        del tables[key]
        indexes = {idx_name: idx for idx_name, idx in
                   self._indexes.items()
                   if idx.table_name.lower() != key}
        # Dependent materialized views cannot outlive their base: drop
        # them in the same atomic publish (their WAL records ride on
        # the recorded base table, so recovery cascades identically).
        matviews = {mv_key: mv for mv_key, mv in self._matviews.items()
                    if mv.definition.base_table != key}
        self._publish(tables=tables, indexes=indexes,
                      matviews=matviews)

    def table_names(self) -> list[str]:
        return [t.name for t in self._tables.values()]

    # ------------------------------------------------------------------
    # Views (the paper's Section 2: F may be "a view based on some
    # complex SQL query"; views re-run their defining SELECT on use)
    # ------------------------------------------------------------------
    def create_view(self, name: str, select, replace: bool = False
                    ) -> None:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"{name!r} is a table")
        if key in self._matviews:
            raise CatalogError(f"{name!r} is a materialized view")
        if key in self._views and not replace:
            raise CatalogError(f"view {name!r} already exists")
        if len(name) > self.max_name_length:
            raise CatalogError(
                f"identifier {name!r} is {len(name)} characters; "
                f"the maximum is {self.max_name_length}")
        if self.storage is not None:
            self.storage.log_create_view(key, select, replace=replace)
        views = dict(self._views)
        views[key] = select
        self._publish(views=views)

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def view(self, name: str):
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"no such view: {name!r}") from None

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._views:
            if if_exists:
                return
            raise CatalogError(f"no such view: {name!r}")
        if self.storage is not None:
            self.storage.log_drop_view(key)
        views = dict(self._views)
        del views[key]
        self._publish(views=views)

    def view_names(self) -> list[str]:
        return list(self._views)

    # ------------------------------------------------------------------
    # Materialized views (repro.views; delta-maintained snapshots of
    # percentage/group-by queries over one base table)
    # ------------------------------------------------------------------
    def create_matview(self, mv) -> None:
        """Register a freshly built MaterializedView."""
        key = mv.key
        if key in self._tables:
            raise CatalogError(f"{mv.name!r} is a table")
        if key in self._views:
            raise CatalogError(f"{mv.name!r} is a view")
        if key in self._matviews:
            raise CatalogError(
                f"materialized view {mv.name!r} already exists")
        if len(mv.name) > self.max_name_length:
            raise CatalogError(
                f"identifier {mv.name!r} is {len(mv.name)} characters; "
                f"the maximum is {self.max_name_length}")
        if self.storage is not None:
            self.storage.log_create_matview(
                key, mv.definition.sql, mv.definition.base_table,
                display_name=mv.definition.name)
        matviews = dict(self._matviews)
        matviews[key] = mv
        self._publish(matviews=matviews)

    def publish_matviews(self, replacements: Mapping[str, object]
                         ) -> None:
        """Swap in replacement view objects (refresh-on-read and
        REFRESH publish through here; definitions are unchanged so
        nothing needs logging)."""
        if not replacements:
            return
        matviews = dict(self._matviews)
        matviews.update(replacements)
        self._publish(matviews=matviews)

    def has_matview(self, name: str) -> bool:
        return name.lower() in self._matviews

    def matview(self, name: str):
        try:
            return self._matviews[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no such materialized view: {name!r}") from None

    def drop_matview(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._matviews:
            if if_exists:
                return
            raise CatalogError(f"no such materialized view: {name!r}")
        if self.storage is not None:
            self.storage.log_drop_matview(key)
        matviews = dict(self._matviews)
        del matviews[key]
        self._publish(matviews=matviews)

    def matviews(self) -> Mapping[str, object]:
        return self._matviews

    def matviews_on(self, table_name: str) -> list:
        """Materialized views whose base is ``table_name``."""
        key = table_name.lower()
        return [mv for mv in self._matviews.values()
                if mv.definition.base_table == key]

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, name: str, table_name: str,
                     column_names: Sequence[str]) -> IndexDefinition:
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        table = self.table(table_name)
        for col in column_names:
            if not table.schema.has_column(col):
                raise CatalogError(
                    f"no column {col!r} in table {table_name!r}")
        index = IndexDefinition(name, table.name,
                                tuple(c.lower() for c in column_names))
        if self.storage is not None:
            self.storage.log_create_index(index)
        indexes = dict(self._indexes)
        indexes[key] = index
        self._publish(indexes=indexes)
        return index

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._indexes:
            if if_exists:
                return
            raise CatalogError(f"no such index: {name!r}")
        if self.storage is not None:
            self.storage.log_drop_index(key)
        indexes = dict(self._indexes)
        del indexes[key]
        self._publish(indexes=indexes)

    def index_names(self) -> list[str]:
        return [idx.name for idx in self._indexes.values()]

    # ------------------------------------------------------------------
    # Savepoints (the atomicity substrate for multi-statement plans)
    # ------------------------------------------------------------------
    def savepoint(self) -> CatalogSnapshot:
        """The state :meth:`rollback` restores: a :meth:`snapshot`
        (O(1) under copy-on-write publication; no data is copied)."""
        return self.snapshot()

    def fingerprint(self) -> tuple:
        """The current state's :attr:`CatalogSnapshot.fingerprint`,
        for crash-consistency checks."""
        return self.snapshot().fingerprint

    def rollback(self, savepoint: CatalogSnapshot) -> None:
        """Restore the catalog to ``savepoint``.

        Tables, views and index definitions snap back to the exact
        objects captured (immutability makes that sufficient).
        """
        if self.storage is not None:
            # One full-manifest WAL record re-asserting the restored
            # state.  This is what heals a fault injected mid-commit:
            # whatever half-committed records the failed statement left
            # in the log, the restore record replayed after them lands
            # the recovered store back on the savepoint state.
            self.storage.log_restore(savepoint.tables, savepoint.views,
                                     savepoint.indexes,
                                     matviews=savepoint.matviews)
        # Materialized views snap back with their tables: each captured
        # MaterializedView is immutable and was published atomically
        # with the table version it matches, so the restored pair is
        # consistent by construction (no stale hit after rollback).
        self._publish(tables=dict(savepoint.tables),
                      views=dict(savepoint.views),
                      indexes=dict(savepoint.indexes),
                      matviews=dict(savepoint.matviews))

    # ------------------------------------------------------------------
    # Recovery (storage engine only)
    # ------------------------------------------------------------------
    def bootstrap(self, tables: Mapping[str, Table],
                  views: Mapping[str, object],
                  indexes: Mapping[str, IndexDefinition],
                  matviews: Mapping[str, object] | None = None) -> None:
        """Publish recovered name spaces wholesale, bypassing the
        storage hooks (the state *came from* the store; re-logging it
        would be circular).  Called once by
        :meth:`~repro.storage.engine.StorageEngine.open_catalog` before
        the database accepts statements."""
        for table in tables.values():
            table.seal()
        self._publish(tables=dict(tables), views=dict(views),
                      indexes=dict(indexes),
                      matviews=dict(matviews) if matviews is not None
                      else None)
