"""Disk-backed tables whose columns are read as far as a query asks.

A :class:`StoredTable` is a drop-in :class:`~repro.engine.table.Table`
whose column data lives on pages.  Each column has a *source*:

* a :class:`Chunk`: its chunk on a run of pages.  Read whole, the
  column is cached *weakly* on the chunk; a gather reads only the page
  slots that hold the rows it selects
  (:func:`~repro.storage.pages.gather_rows`), or takes them from the
  cached column;
* an :class:`Appended`: a chunk with rows appended in memory
  (:meth:`StoredTable.append`);
* a :class:`~repro.engine.column.ColumnData` in memory
  (:meth:`StoredTable.replace_column`);
* a :class:`Gathered`: some rows of one of the above, by position
  (:meth:`StoredTable.take` / :meth:`StoredTable.filter`), read when a
  query first asks for the column.

A table whose every column is a chunk is *on pages*: the catalog
publishes only those, and the storage engine persists any other table
a DML makes (:meth:`~repro.storage.engine.StorageEngine.persist_table`)
-- a chunk is kept as it is, an appended one is rewritten from the
slot its tail starts in, a column in memory is compared with the one
it replaces.  So an INSERT reads no old column whole, and an UPDATE's
unassigned columns stay on their pages, unread.

Caching:

* the outermost query scope holds every column read whole
  (:func:`repro.engine.scope.hold`), so within one statement every
  accessor sees the same :class:`~repro.engine.column.ColumnData`
  object -- the GROUP BY machinery's identity-based dedup relies on
  it -- and the statements of one generated plan or script share
  them; a column from any other source is made once per table and
  kept by it; a frame reads a column of a scanned table only when an
  expression names it (:meth:`repro.engine.expressions.Frame.add_table`);
* across queries the weak entries die with the last holder, and the
  next query re-fetches pages -- the buffer pool, not the table, is
  the cache, so resident memory stays bounded by the pool capacity
  plus live queries, plus one encoding memo (an int64 code array and
  its dictionary) per encoded chunk of a live version;
* a chunk is shared by every version that keeps the column unchanged
  and by renamed siblings, and so are its cached column and its memo:
  the column an UPDATE's WHERE read is the one its view maintenance
  gathers from.

A version names the pages of its chunks, never another version, so a
replaced version is freed by refcount like any other.  Every instance,
renamed siblings and gathers included, registers itself with its
store, weakly: a checkpoint frees only pages no live instance names.
"""

from __future__ import annotations

import threading
import weakref
from typing import (TYPE_CHECKING, Mapping, NamedTuple, Optional,
                    Sequence, Union)

import numpy as np

from repro.engine import scope
from repro.engine import table as table_mod
from repro.engine.column import Block, ColumnData, EncodingMemo
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import SQLType
from repro.errors import ExecutionError
from repro.storage.pages import deserialize_column

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.engine import StorageEngine


class Chunk:
    """One column's chunk on a run of pages: its page ids, the column
    last read whole from it (held weakly) and its encoding memo."""

    __slots__ = ("ids", "sql_type", "rows", "memo", "_column", "_lock")

    def __init__(self, ids: Sequence[int], sql_type: SQLType, rows: int):
        self.ids = list(ids)
        self.sql_type = sql_type
        self.rows = rows
        self.memo: Optional[EncodingMemo] = None
        self._column: Optional[weakref.ref] = None
        self._lock = threading.Lock()

    def cached(self) -> Optional[ColumnData]:
        return None if self._column is None else self._column()

    def read(self, store: "StorageEngine") -> ColumnData:
        """The whole column, from the cache or off every page."""
        with self._lock:
            data = self.cached()
            if data is None:
                data = self._install(store.read_column(self.ids))
            return data

    def gather(self, store: "StorageEngine",
               positions: np.ndarray) -> ColumnData:
        """Rows ``positions``: taken from the cached column if there is
        one, else read off the page slots holding them -- and when that
        is every slot, read whole and cached as :meth:`read` does."""
        data = self.cached()
        if data is None:
            data, whole = store.gather_column(self, positions)
            if whole is None:
                return data
            with self._lock:
                data = self.cached()
                if data is None:
                    data = self._install(deserialize_column(whole))
        return data.take(positions)

    def seal(self, table_key: str) -> None:
        """Give the chunk a memo, unless it has one: a chunk an earlier
        version sealed keeps its memo (same content)."""
        with self._lock:
            if self.memo is None:
                self.memo = EncodingMemo(table_key)

    def _install(self, data: ColumnData) -> ColumnData:
        if len(data) != self.rows:
            raise ExecutionError(
                f"the column chunk on pages {self.ids[:3]}... "
                f"deserialized to {len(data)} rows, expected "
                f"{self.rows}")
        data.memo = self.memo
        self._column = weakref.ref(data)
        scope.hold(data)
        return data


class Appended(NamedTuple):
    """A chunk's rows, then ``tail``'s."""
    chunk: Chunk
    tail: ColumnData


class Gathered(NamedTuple):
    """Rows ``positions`` of ``source`` (never itself a gather)."""
    source: "Union[Chunk, Appended, ColumnData]"
    positions: np.ndarray


Source = Union[Chunk, Appended, ColumnData, Gathered]


def _chunk_of(source: Source) -> Optional[Chunk]:
    if type(source) is Gathered:
        source = source.source
    if type(source) is Appended:
        return source.chunk
    return source if type(source) is Chunk else None


class StoredTable(Table):
    """A Table whose columns live on pages behind the buffer pool."""

    def __init__(self, schema: TableSchema, store: "StorageEngine",
                 pages: Mapping[str, list[int]], n_rows: int,
                 version: Optional[int] = None):
        """The table on ``pages`` (column name, lowered -> page ids)."""
        # Deliberately does NOT call Table.__init__: there is no
        # eager column dict to validate -- the page map is the data.
        n_rows = int(n_rows)
        self._init(schema, store, {
            c.name.lower(): Chunk(pages[c.name.lower()], c.sql_type, n_rows)
            for c in schema.columns}, n_rows, version, {})

    @classmethod
    def _over(cls, schema: TableSchema, store: "StorageEngine",
              sources: dict[str, Source], n_rows: int,
              version: Optional[int] = None,
              columns: Optional[dict[str, ColumnData]] = None
              ) -> "StoredTable":
        table = cls.__new__(cls)
        table._init(schema, store, sources, n_rows, version,
                    {} if columns is None else columns)
        return table

    def _init(self, schema, store, sources, n_rows, version,
              columns) -> None:
        self.schema = schema
        self.version = (version if version is not None
                        else next(table_mod._VERSION_COUNTER))
        self._store = store
        #: Column key -> where the column comes from.
        self._sources = sources
        self._row_count = n_rows
        #: Column key -> the column made from a source other than a
        #: chunk, kept (one object per column); shared by renamed
        #: siblings.
        self._columns = columns
        store.register(self)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._row_count

    @property
    def on_pages(self) -> bool:
        """Whether every column is a chunk (nothing left to persist)."""
        return all(type(s) is Chunk for s in self._sources.values())

    def _column_at(self, position: int) -> ColumnData:
        key = self.schema.names[position].lower()
        source = self._sources[key]
        if type(source) is Chunk:
            return source.read(self._store)
        data = self._columns.get(key)
        if data is None:
            data = self._columns.setdefault(key, self._read(source))
        return data

    def _read(self, source: Source) -> ColumnData:
        if type(source) is Appended:
            return ColumnData.concat([source.chunk.read(self._store),
                                      source.tail])
        if type(source) is Gathered:
            return self._gather(*source)
        return source

    def _gather(self, source: Source, positions: np.ndarray) -> ColumnData:
        if type(source) is Chunk:
            return source.gather(self._store, positions)
        if type(source) is not Appended:
            return source.take(positions)
        n = source.chunk.rows
        on_pages = positions < n
        head = source.chunk.gather(self._store, positions[on_pages])
        if len(head) == len(positions):
            return head
        tail = source.tail.take(positions[~on_pages] - n)
        values = np.empty(len(positions), dtype=head.values.dtype)
        nulls = np.empty(len(positions), dtype=bool)
        for part, where in ((head, on_pages), (tail, ~on_pages)):
            values[where] = part.values
            nulls[where] = part.nulls
        return ColumnData(head.sql_type, values, nulls)

    def _loaded(self) -> Table:
        """Every column read in, as a table of one block per column
        (what the base class's row-set methods work on)."""
        return Table(self.schema, {
            name: self._column_at(i)
            for i, name in enumerate(self.schema.names)})

    def _run(self, start: int, stop: int, at: int = 0) -> tuple[
            list[Block], dict[int, ColumnData], dict, list]:
        """Columns ``start:stop`` read in, and only those; their memos
        travel with them, so nothing is lent."""
        columns = [self._column_at(q) for q in range(start, stop)]
        return ([Block.of(column) for column in columns],
                dict(enumerate(columns)), {}, [])

    def page_map(self) -> dict[str, list[int]]:
        """Column name (lowered) -> page id run of each chunk (a
        copy)."""
        return {key: list(source.ids)
                for key, source in self._sources.items()
                if type(source) is Chunk}

    def page_ids(self) -> set[int]:
        """Every page a column of this table may still read."""
        return {page_id for source in self._sources.values()
                if (chunk := _chunk_of(source)) is not None
                for page_id in chunk.ids}

    # ------------------------------------------------------------------
    # New tables from this one: nothing is read until a column is asked
    # for.
    # ------------------------------------------------------------------
    def _derived(self, sources: dict[str, Source],
                 n_rows: int) -> "StoredTable":
        return StoredTable._over(self.schema, self._store, sources, n_rows)

    def take(self, indices: np.ndarray) -> "StoredTable":
        positions = np.asarray(indices, dtype=np.int64)
        return self._derived({
            key: Gathered(source.source, source.positions[positions])
            if type(source) is Gathered else Gathered(source, positions)
            for key, source in self._sources.items()}, len(positions))

    def filter(self, mask: np.ndarray) -> "StoredTable":
        return self.take(np.flatnonzero(mask))

    def append(self, other: Table) -> "StoredTable":
        """A new version with ``other``'s rows appended; this version's
        chunks are not read."""
        if other.schema.width() != self.schema.width():
            raise ExecutionError(
                f"cannot append {other.schema.width()}-column rows to "
                f"{self.schema.width()}-column table {self.name!r}")
        for mine, theirs in zip(self.schema.columns, other.schema.columns):
            if theirs.sql_type != mine.sql_type:
                raise ExecutionError(
                    f"column {mine.name!r}: cannot append "
                    f"{theirs.sql_type} to {mine.sql_type}")
        if other.n_rows == 0:
            return self._derived(dict(self._sources), self.n_rows)
        sources: dict[str, Source] = {}
        for position, (key, source) in enumerate(self._sources.items()):
            tail = other._column_at(position)
            if type(source) is Chunk:
                sources[key] = Appended(source, tail)
            elif type(source) is Appended:
                sources[key] = Appended(
                    source.chunk, ColumnData.concat([source.tail, tail]))
            else:
                sources[key] = ColumnData.concat(
                    [self._column_at(position), tail])
        return self._derived(sources, self.n_rows + other.n_rows)

    def replace_column(self, name: str, data: ColumnData) -> "StoredTable":
        """A new version with ``name``'s column in memory; every other
        column keeps its source, unread."""
        self._check_replacement(name, data)
        sources = dict(self._sources)
        sources[self.schema.column(name).name.lower()] = \
            table_mod._contiguous(data)
        return self._derived(sources, self.n_rows)

    def with_rows_rewritten(self, assigned: set[str]) -> "StoredTable":
        """Itself: persisting a version shares the pages of every column
        it keeps, which is the row rewrite on disk."""
        return self

    def renamed(self, new_name: str) -> "StoredTable":
        return StoredTable._over(self.schema.renamed(new_name),
                                 self._store, self._sources,
                                 self._row_count, version=self.version,
                                 columns=self._columns)

    def seal(self) -> None:
        table_key = self.name.lower()
        for source in self._sources.values():
            if type(source) is Chunk:
                source.seal(table_key)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(str(c) for c in self.schema.columns)
        return (f"<StoredTable {self.name} [{cols}] "
                f"rows={self._row_count} "
                f"pages={len(self.page_ids())}>")
