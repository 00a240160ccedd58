"""Disk-backed tables that materialize columns through the buffer pool.

A :class:`StoredTable` is a drop-in :class:`~repro.engine.table.Table`
whose column data lives on pages.  It keeps only the page map in
memory; a column is deserialized on first access and cached *weakly*,
so:

* the outermost query scope holds every column it read
  (:func:`repro.engine.scope.hold`), so within one statement every
  accessor sees the same :class:`~repro.engine.column.ColumnData`
  object -- the GROUP BY machinery's identity-based dedup relies on
  it -- and the statements of one generated plan or script share
  them; a frame reads a column of a scanned table only when an
  expression names it (:meth:`repro.engine.expressions.Frame.add_table`);
* across queries the weak entries die with the last holder, and the
  next query re-fetches pages -- the buffer pool, not the table, is
  the cache, so resident memory stays bounded by the pool capacity
  plus live queries, plus one encoding memo (an int64 code array and
  its dictionary) per encoded column of a live version: the memo
  outlives the column objects it is attached to, and dies with the
  version.

``renamed()`` (called on every scan) returns a lazy sibling sharing
the same store, page map, weak cache and memos instead of
materializing everything the way the base class would.

A version's page map may name pages of the version it replaced: the
storage engine writes only the page slots a DML changed.  The map
holds page ids, never the other version, so a replaced version is
freed by refcount like any other.  Every instance, renamed siblings
included, registers itself with its store, weakly: a checkpoint frees
only pages no live instance names.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Mapping, Optional

from repro.engine import scope
from repro.engine import table as table_mod
from repro.engine.column import Block, ColumnData, EncodingMemo
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.engine import StorageEngine


class StoredTable(Table):
    """A Table whose columns live on pages behind the buffer pool."""

    def __init__(self, schema: TableSchema, store: "StorageEngine",
                 pages: Mapping[str, list[int]], n_rows: int,
                 version: Optional[int] = None,
                 shared_cache: Optional[
                     "weakref.WeakValueDictionary"] = None,
                 memos: Optional[dict[str, EncodingMemo]] = None):
        # Deliberately does NOT call Table.__init__: there is no
        # eager column dict to validate -- the page map is the data.
        self.schema = schema
        self.version = (version if version is not None
                        else next(table_mod._VERSION_COUNTER))
        self._store = store
        self._pages = {name.lower(): list(ids)
                       for name, ids in pages.items()}
        self._row_count = int(n_rows)
        self._cache = (shared_cache if shared_cache is not None
                       else weakref.WeakValueDictionary())
        self._cache_lock = threading.Lock()
        #: Column key -> the memo :meth:`seal` made, attached to every
        #: fresh column object; shared by renamed siblings.
        self._memos = memos if memos is not None else {}
        store.register(self)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._row_count

    def _column_at(self, position: int) -> ColumnData:
        return self._materialize(self.schema.columns[position].name.lower())

    def _loaded(self) -> Table:
        """Every column read in, as a table of one block per column
        (what the base class's row-set methods work on)."""
        return Table(self.schema, {c.name: self._column_at(i)
                                   for i, c in enumerate(self.schema.columns)})

    def _run(self, start: int, stop: int) -> tuple[
            list[Block], dict[int, ColumnData], dict[int, EncodingMemo]]:
        """Columns ``start:stop`` read in, and only those."""
        columns = [self._column_at(q) for q in range(start, stop)]
        return ([Block.of(column) for column in columns],
                dict(enumerate(columns)),
                {q: column.memo for q, column in enumerate(columns)
                 if column.memo is not None})

    def page_map(self) -> dict[str, list[int]]:
        """Column name (lowered) -> page id run (a copy)."""
        return {name: list(ids) for name, ids in self._pages.items()}

    def page_ids(self) -> set[int]:
        return {pid for ids in self._pages.values() for pid in ids}

    # ------------------------------------------------------------------
    def _materialize(self, key: str) -> ColumnData:
        with self._cache_lock:
            data = self._cache.get(key)
            if data is not None:
                return data
            data = self._store.read_column(self._pages[key])
            if len(data) != self._row_count:
                raise ExecutionError(
                    f"column {key!r} of table {self.name!r} "
                    f"deserialized to {len(data)} rows, expected "
                    f"{self._row_count}")
            data.memo = self._memos.get(key)
            self._cache[key] = data
            scope.hold(data)
            return data

    # ------------------------------------------------------------------
    def renamed(self, new_name: str) -> "StoredTable":
        return StoredTable(self.schema.renamed(new_name), self._store,
                           self._pages, self._row_count,
                           version=self.version, shared_cache=self._cache,
                           memos=self._memos)

    def seal(self) -> None:
        table_key = self.name.lower()
        for key in self._pages:
            self._memos.setdefault(key, EncodingMemo(table_key))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(str(c) for c in self.schema.columns)
        return (f"<StoredTable {self.name} [{cols}] "
                f"rows={self._row_count} "
                f"pages={sum(map(len, self._pages.values()))}>")
