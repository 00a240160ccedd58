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
        #: publish commits through it *before* swapping in (see
        #: :meth:`_publish`).  Overlay catalogs built by :meth:`overlay`
        #: leave it ``None``: snapshot-isolated temp DDL stays in
        #: memory (published StoredTables keep their own engine
        #: reference, so overlay reads still work).
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
    def _publish(self, **spaces: dict) -> None:
        """Atomically swap in replacement name-space dicts (``tables``,
        ``views``, ``indexes``, ``matviews``; one not passed stays).

        Callers pass *new* dict objects (never the published ones
        mutated in place); the published dicts stay frozen forever, so
        concurrent snapshot holders are unaffected.  This is the one
        place the catalog calls its store: the store persists the new
        tables and logs what differs *before* the swap, so a crash in
        between is redone on reopen.  A table new under its key is
        sealed on the way in.
        """
        before = {"tables": self._tables, "views": self._views,
                  "indexes": self._indexes, "matviews": self._matviews}
        after = {**before, **spaces}
        if self.storage is not None:
            after["tables"] = self.storage.commit(before, after)
        for key, table in after["tables"].items():
            if table is not before["tables"].get(key):
                table.seal()
        with self._publish_lock:
            self._tables, self._views, self._indexes, self._matviews = (
                after["tables"], after["views"], after["indexes"],
                after["matviews"])
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
        names = (schema.name, *schema.names)
        if max(map(len, names)) > self.max_name_length:
            name = next(n for n in names if len(n) > self.max_name_length)
            raise CatalogError(
                f"identifier {name!r} is {len(name)} characters; "
                f"the maximum is {self.max_name_length}")

    def create_table(self, table: Table) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        if key in self._views:
            raise CatalogError(f"{table.name!r} is a view")
        if key in self._matviews:
            raise CatalogError(f"{table.name!r} is a materialized view")
        self.validate_schema(table.schema)
        self._publish(tables={**self._tables, key: table})

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
        self._publish(tables={**self._tables, key: table},
                      matviews={**self._matviews, **(matviews or {})})

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no such table: {name!r}")
        tables = {k: t for k, t in self._tables.items() if k != key}
        indexes = {idx_name: idx for idx_name, idx in
                   self._indexes.items()
                   if idx.table_name.lower() != key}
        # Dependent materialized views cannot outlive their base: drop
        # them in the same atomic publish (whose one WAL record drops
        # them too, so recovery needs no cascade of its own).
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
    def create_view(self, name: str, select) -> None:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"{name!r} is a table")
        if key in self._matviews:
            raise CatalogError(f"{name!r} is a materialized view")
        if key in self._views:
            raise CatalogError(f"view {name!r} already exists")
        if len(name) > self.max_name_length:
            raise CatalogError(
                f"identifier {name!r} is {len(name)} characters; "
                f"the maximum is {self.max_name_length}")
        self._publish(views={**self._views, key: select})

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
        self._publish(views={k: v for k, v in self._views.items()
                             if k != key})

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
        self._publish(matviews={**self._matviews, key: mv})

    def publish_matviews(self, replacements: Mapping[str, object]
                         ) -> None:
        """Swap in replacement view objects (refresh-on-read, REFRESH
        and recovery publish through here; their definitions are the
        durable ones, so the store logs nothing)."""
        if replacements:
            self._publish(matviews={**self._matviews, **replacements})

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
        self._publish(matviews={k: mv for k, mv in self._matviews.items()
                                if k != key})

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
        self._publish(indexes={**self._indexes, key: index})
        return index

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._indexes:
            if if_exists:
                return
            raise CatalogError(f"no such index: {name!r}")
        self._publish(indexes={k: idx for k, idx in self._indexes.items()
                               if k != key})

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
        objects captured (immutability makes that sufficient).  On a
        store, the publish logs the savepoint's difference from the
        *durable* state, not from the published one: that heals a
        statement whose record became durable before it failed.
        """
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
                  indexes: Mapping[str, IndexDefinition]) -> None:
        """Publish recovered name spaces wholesale.  Called once by
        :meth:`~repro.storage.engine.StorageEngine.open_catalog`, which
        holds them as durable already, so the publish logs nothing."""
        self._publish(tables=dict(tables), views=dict(views),
                      indexes=dict(indexes))
