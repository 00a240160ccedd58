"""In-memory columnar tables, stored as column blocks.

A :class:`Table` stores its columns as :class:`~repro.engine.column.Block`
runs: adjacent columns of one SQL type held as one ``k x n`` pair of
``values`` / ``nulls`` arrays, one row of the pair per column.  A table
built column by column holds one zero-copy block per column and keeps
the given columns as its views; a table built from
blocks -- an empty table states one block per type run, a cell family
hands on its groups x cells result as one -- keeps them, so a wide
table is checked, appended, sliced, gathered and turned into rows in a
few numpy calls instead of one Python call per column.
:meth:`Table.column` is a zero-copy, C-contiguous 1-D view made on
first use and then kept, so every kernel over a column sees one plain
1-D ``ColumnData``.

Tables are the engine's only data container: base tables live in the
catalog, while query execution passes intermediate ``Table`` objects
between operators.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import threading
from typing import (Any, Callable, Iterable, Iterator, Optional, Sequence,
                    Union)

import numpy as np

from repro.engine.column import Block, ColumnData, EncodingMemo
from repro.engine.schema import ColumnDef, TableSchema
from repro.engine.types import SQLType
from repro.errors import ExecutionError


#: Globally unique, monotonically increasing table versions.  Every
#: Table instance gets a fresh version (DML always swaps in a new
#: instance via the catalog), so equal identities imply equal content.
_VERSION_COUNTER = itertools.count(1)

#: Rows :meth:`Table.rows` converts at a time.
_ROW_BATCH = 1024

#: What :meth:`Table.assemble` takes for a run of result columns: one
#: column, a block, or columns ``start:stop`` of a table.
Part = Union[ColumnData, Block, tuple["Table", int, int]]


class Table:
    """A named, schema-typed collection of equal-length columns."""

    def __init__(self, schema: TableSchema,
                 columns: dict[str, ColumnData] | None = None):
        if columns is None:
            # An empty table states one block per run of same-typed
            # columns: a 1,201-column CREATE TABLE is two blocks.
            self._set(schema, [Block.all_null(sql_type, k, 0)
                               for sql_type, k in _type_runs(schema)], 0)
            return
        views: dict[int, ColumnData] = {}
        n_rows = None
        for position, col_def in enumerate(schema.columns):
            # Exact names first: the executor's own tables always match.
            data = columns.get(col_def.name)
            if data is None:
                try:
                    data = _lookup_ci(columns, col_def.name)
                except KeyError:
                    raise ExecutionError(
                        f"missing data for column {col_def.name!r}"
                    ) from None
            if data.sql_type != col_def.sql_type:
                raise ExecutionError(
                    f"column {col_def.name!r}: declared {col_def.sql_type} "
                    f"but data is {data.sql_type}")
            length = len(data.values)
            if n_rows is None:
                n_rows = length
            elif length != n_rows:
                raise ExecutionError(
                    f"column {col_def.name!r} has {length} rows, "
                    f"expected {n_rows}")
            views[position] = _contiguous(data)
        self._set(schema, [Block.of(view) for view in views.values()],
                  n_rows or 0, views, {
                      position: view.memo for position, view in views.items()
                      if view.memo is not None})

    def _set(self, schema: TableSchema, blocks: list[Block], n_rows: int,
             views: Optional[dict[int, ColumnData]] = None,
             memos: Optional[dict[int, EncodingMemo]] = None,
             sealed: Optional[str] = None,
             version: Optional[int] = None) -> None:
        self.schema = schema
        self.version = next(_VERSION_COUNTER) if version is None \
            else version
        self._blocks = blocks
        self._n_rows = n_rows
        #: Position -> the column's view, made on first use and kept:
        #: the GROUP BY machinery and the frame tell columns apart by
        #: identity, so a column is one object for the table's life.
        self._views = {} if views is None else views
        #: Position -> the column's encoding memo, where it has one.
        self._memos = {} if memos is None else memos
        #: The sealing table's key: a position's memo is made with its
        #: view, not all at :meth:`seal` (None until sealed).
        self._sealed = sealed
        self._ends: Optional[list[int]] = None

    @classmethod
    def _of(cls, schema: TableSchema, blocks: list[Block], n_rows: int,
            **state: Any) -> "Table":
        """A table over ``blocks`` the caller vouches for."""
        table = Table.__new__(Table)
        table._set(schema, [b for b in blocks if len(b.values)], n_rows,
                   **state)
        return table

    def _block_ends(self) -> list[int]:
        """Each block's end position, in schema order."""
        if self._ends is None:
            self._ends = list(itertools.accumulate(
                len(block.values) for block in self._blocks))
        return self._ends

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def identity(self) -> tuple[str, int]:
        """A hashable ``(name, version)`` identity for this table
        state.  Versions are globally unique and every DML publishes a
        new Table, so equal identities imply byte-identical content --
        the key the service's snapshot bookkeeping and the stress
        suite's shadow model are built on."""
        return (self.name.lower(), self.version)

    def column(self, name: str) -> ColumnData:
        """The column data for ``name`` (case-insensitive)."""
        position = self.schema.position(name.lower())
        if position is None:
            raise ExecutionError(
                f"no column {name!r} in table {self.name!r}")
        return self._column_at(position)

    def find(self, name: str) -> ColumnData | None:
        """The column data for lower-cased ``name``, or None."""
        position = self.schema.position(name)
        return None if position is None else self._column_at(position)

    def _column_at(self, position: int) -> ColumnData:
        view = self._views.get(position)
        if view is None:
            ends = self._block_ends()
            b = bisect.bisect_right(ends, position)
            start = ends[b - 1] if b else 0
            # setdefault: two threads reading one column keep one view.
            view = self._views.setdefault(position, self._blocks[b].column(
                position - start, self._memo_at(position)))
        return view

    def _memo_at(self, position: int) -> Optional[EncodingMemo]:
        """The memo of the column at ``position``; a sealed table
        makes it on first request."""
        memo = self._memos.get(position)
        if memo is None and self._sealed is not None:
            # setdefault: two threads keep one memo.
            memo = self._memos.setdefault(position,
                                          EncodingMemo(self._sealed))
        return memo

    def _memos_between(self, start: int, stop: int
                       ) -> dict[int, EncodingMemo]:
        """The memos of columns ``start:stop``, by offset: all of them
        when sealed, so what is built from these columns shares them."""
        if self._sealed is None:
            return {q - start: memo for q, memo in self._memos.items()
                    if start <= q < stop}
        return {q - start: self._memo_at(q) for q in range(start, stop)}

    def column_names(self) -> list[str]:
        return self.schema.column_names()

    def blocks(self) -> list[Block]:
        """The column blocks, in schema order."""
        return list(self._loaded()._blocks)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate rows as tuples of Python values (None for NULL),
        converting ``_ROW_BATCH`` rows of each block at a time; the
        blocks are loaded once, for the whole iteration."""
        source = self._loaded()
        for start in range(0, self.n_rows, _ROW_BATCH):
            yield from source._rows_between(start, start + _ROW_BATCH)

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialize all rows: one ``tolist`` per block, zipped."""
        return self._loaded()._rows_between(0, self.n_rows)

    def row(self, i: int) -> tuple[Any, ...]:
        i = range(self.n_rows)[i]
        return self._loaded()._rows_between(i, i + 1)[0]

    def _rows_between(self, start: int, stop: int
                      ) -> list[tuple[Any, ...]]:
        """Rows ``start:stop``, built with the collector paused (the
        pause ends before the caller sees them, so it never spans a
        ``yield`` of :meth:`rows`)."""
        if not self.schema.columns or start >= stop:
            return []
        with _COLLECTOR_PAUSE:
            lists = []
            for block in self._blocks:
                lists.extend(block.sliced_rows(start, stop).to_lists())
            return list(zip(*lists))

    def _loaded(self) -> "Table":
        """This table with its blocks in memory: itself (a disk table
        reads its columns in)."""
        return self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: TableSchema,
                  rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from an iterable of row sequences."""
        rows = [tuple(r) for r in rows]
        width = schema.width()
        for r in rows:
            if len(r) != width:
                raise ExecutionError(
                    f"row has {len(r)} values, table {schema.name!r} "
                    f"has {width} columns")
        columns = {}
        for i, col_def in enumerate(schema.columns):
            columns[col_def.name] = ColumnData.from_values(
                col_def.sql_type, (r[i] for r in rows))
        return cls(schema, columns)

    @classmethod
    def from_columns(cls, name: str,
                     named: Sequence[tuple[str, ColumnData]],
                     primary_key: Sequence[str] = ()) -> "Table":
        """Build a table (and its schema) from named column data."""
        schema = TableSchema(
            name=name,
            columns=[ColumnDef(n, c.sql_type) for n, c in named],
            primary_key=tuple(primary_key))
        return cls(schema, dict(named))

    @classmethod
    def from_blocks(cls, schema: TableSchema,
                    blocks: Sequence[Block]) -> "Table":
        """A table over ``blocks``, in schema order: each block is
        checked once -- its type against the columns it covers, its
        length against the first block's."""
        types = [c.sql_type for c in schema.columns]
        start, n_rows = 0, None
        for block in blocks:
            k, length = block.values.shape
            if types[start:start + k].count(block.sql_type) != k:
                raise ExecutionError(
                    f"block of {k} {block.sql_type} columns does not "
                    f"match columns {start}..{start + k - 1} of table "
                    f"{schema.name!r}")
            if n_rows is None:
                n_rows = length
            elif length != n_rows:
                raise ExecutionError(
                    f"block has {length} rows, expected {n_rows}")
            start += k
        if start != len(types):
            raise ExecutionError(
                f"blocks hold {start} columns, table {schema.name!r} "
                f"has {len(types)}")
        return cls._of(schema, list(blocks), n_rows or 0)

    @classmethod
    def all_null(cls, schema: TableSchema, length: int) -> "Table":
        """``length`` rows of NULLs, one block per type run."""
        return cls._of(schema, [Block.all_null(sql_type, k, length)
                                for sql_type, k in _type_runs(schema)],
                       length)

    @classmethod
    def assemble(cls, name: str,
                 parts: Sequence[tuple[Sequence[str], Part]]) -> "Table":
        """A result table from named parts in column order, each with
        as many names as it has columns: a column (kept as it is), a
        block, or ``(table, start, stop)`` -- that table's columns,
        sliced off its blocks with their views and memos, and under
        its column definitions when the names are the table's own."""
        defs: list[ColumnDef] = []
        blocks: list[Block] = []
        views: dict[int, ColumnData] = {}
        memos: dict[int, EncodingMemo] = {}
        for names, part in parts:
            position = len(defs)
            if isinstance(part, ColumnData):
                part = _contiguous(part)
                defs.append(ColumnDef(names[0], part.sql_type))
                blocks.append(Block.of(part))
                views[position] = part
                if part.memo is not None:
                    memos[position] = part.memo
            elif isinstance(part, Block):
                defs.extend(ColumnDef(n, part.sql_type) for n in names)
                blocks.append(part)
            else:
                source, start, stop = part
                own = source.schema.columns[start:stop]
                defs.extend(own if [c.name for c in own] == list(names)
                            else (ColumnDef(n, c.sql_type)
                                  for n, c in zip(names, own)))
                run, run_views, run_memos = source._run(start, stop)
                blocks.extend(run)
                views.update((position + q, view)
                             for q, view in run_views.items())
                memos.update((position + q, memo)
                             for q, memo in run_memos.items())
        n_rows = blocks[0].values.shape[1] if blocks else 0
        return cls._of(TableSchema(name, defs), blocks, n_rows,
                       views=views, memos=memos)

    def _run(self, start: int, stop: int) -> tuple[
            list[Block], dict[int, ColumnData], dict[int, EncodingMemo]]:
        """Columns ``start:stop`` as :meth:`assemble` takes them: the
        blocks, the views made and the memos (by offset)."""
        return (self._sliced(start, stop),
                {q - start: view for q, view in self._views.items()
                 if start <= q < stop},
                self._memos_between(start, stop))

    def _sliced(self, start: int, stop: int) -> list[Block]:
        """The blocks of columns ``start:stop``, cut at the ends."""
        ends = self._block_ends()
        out = []
        for b in range(bisect.bisect_right(ends, start), len(ends)):
            offset = ends[b - 1] if b else 0
            if offset >= stop:
                break
            out.append(self._blocks[b].sliced(max(start - offset, 0),
                                              min(stop, ends[b]) - offset))
        return out

    # ------------------------------------------------------------------
    # Row-set transformations: one numpy call per block
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by position into a new table."""
        return self._each(lambda part: part.take(indices))

    def filter(self, mask: np.ndarray) -> "Table":
        """Keep rows where ``mask`` is True."""
        return self._each(lambda part: part.filter(mask))

    def _each(self, change: Callable[[Block], Block]) -> "Table":
        """``change`` applied to every block."""
        blocks = [change(block) for block in self._loaded()._blocks]
        return Table._of(self.schema, blocks,
                         blocks[0].values.shape[1] if blocks else 0)

    def conformed(self, schema: TableSchema,
                  coerce: Callable[[Block, SQLType], Block]) -> "Table":
        """These rows under ``schema`` (as wide), one block per type
        run of ``schema``: the blocks cut where the runs end, each
        piece through ``coerce(piece, declared type)`` once, and the
        pieces of a run stacked into one block (a run one block
        already covers is that block, uncopied)."""
        runs = _type_runs(schema)
        cuts = _cut(self._loaded()._blocks, [k for _, k in runs])
        return Table.from_blocks(schema, [
            Block.stack([coerce(piece, sql_type) for piece in pieces])
            for (sql_type, _), pieces in zip(runs, cuts)])

    def append(self, other: "Table") -> "Table":
        """A new table with ``other``'s rows appended (schemas must align
        positionally by type).  Into an empty table ``other``'s blocks
        are adopted as they are; otherwise each block of this table
        takes the rows of the same columns of ``other`` in one
        concatenate."""
        if other.schema.width() != self.schema.width():
            raise ExecutionError(
                f"cannot append {other.schema.width()}-column rows to "
                f"{self.schema.width()}-column table {self.name!r}")
        mine = self._loaded()._blocks
        theirs = other._loaded()._blocks
        cuts = _cut(theirs, [len(block.values) for block in mine])
        start = 0
        for block, pieces in zip(mine, cuts):
            for piece in pieces:
                if piece.sql_type != block.sql_type:
                    raise ExecutionError(
                        f"column {self.schema.columns[start].name!r}: "
                        f"cannot append {piece.sql_type} to "
                        f"{block.sql_type}")
                start += len(piece.values)
        if other.n_rows == 0:
            blocks = mine
        elif self.n_rows == 0:
            blocks = theirs
        else:
            blocks = [Block.concat([block, Block.stack(pieces)])
                      for block, pieces in zip(mine, cuts)]
        return Table._of(self.schema, list(blocks),
                         self.n_rows + other.n_rows)

    def _check_replacement(self, name: str, data: ColumnData) -> None:
        col_def = self.schema.column(name)
        if data.sql_type != col_def.sql_type:
            raise ExecutionError(
                f"column {name!r}: cannot replace {col_def.sql_type} "
                f"with {data.sql_type}")
        if len(data) != self.n_rows:
            raise ExecutionError(
                f"replacement column has {len(data)} rows, "
                f"table has {self.n_rows}")

    def replace_column(self, name: str, data: ColumnData) -> "Table":
        """A new table with one column's data replaced (same type)."""
        self._check_replacement(name, data)
        source = self._loaded()
        position = self.schema.column_index(name)
        data = _contiguous(data)
        views = dict(source._views)
        views[position] = data
        memos = source._memos_between(0, self.schema.width())
        memos.pop(position, None)
        if data.memo is not None:
            memos[position] = data.memo
        blocks = (source._sliced(0, position) + [Block.of(data)]
                  + source._sliced(position + 1, self.schema.width()))
        return Table._of(self.schema, blocks, self.n_rows, views=views,
                         memos=memos)

    def with_rows_rewritten(self, assigned: set[str]) -> "Table":
        """A new table whose columns not named in ``assigned`` (lowered)
        are copies: an UPDATE rewrites whole rows, as the row store the
        engine stands in for does (the ledger's 2x)."""
        updated = self
        for col_def in self.schema.columns:
            if col_def.name.lower() not in assigned:
                updated = updated.replace_column(
                    col_def.name, updated.column(col_def.name).copy())
        return updated

    def renamed(self, new_name: str) -> "Table":
        """The same data under a different table name: the same
        blocks, views and memos, and the same version (identical
        content)."""
        return Table._of(self.schema.renamed(new_name), self._blocks,
                         self._n_rows, views=self._views,
                         memos=self._memos, sealed=self._sealed,
                         version=self.version)

    # ------------------------------------------------------------------
    def seal(self) -> None:
        """Give every column an encoding memo, unless it has one.
        Called by the catalog when this table becomes (or replaces) a
        base table; intermediate result tables are never sealed, so
        only base-table columns memoize their encodings.  A column
        another base table sealed first (``CREATE TABLE t2 AS SELECT *
        FROM t``, the columns an UPDATE left alone) has the same
        content, so it keeps that table's memo.  Only the views made
        so far get theirs now; a column's memo is otherwise made with
        its view (:meth:`_memo_at`), so a wide table that is replaced
        before it is read -- an empty FH table an INSERT fills --
        makes none."""
        memos, views = self._memos, self._views
        for position, view in views.items():
            if view.memo is not None:
                memos[position] = view.memo
        self._sealed = self.name.lower()
        for position, view in views.items():
            view.memo = self._memo_at(position)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(str(c) for c in self.schema.columns)
        return f"<Table {self.name} [{cols}] rows={self.n_rows}>"


class _CollectorPause:
    """CPython's cyclic collector paused while rows are built.  A
    result row holds only ints, floats, strs and None, so it can never
    be part of a cycle, yet every ~700 new tuples set off a collection
    that walks them: about half the time of a 250,000-row
    :meth:`Table.to_rows`.

    The pause is counted across threads: the first to enter notes
    whether the collector is on and turns it off, the last to leave
    turns it back on if it was.  A plain ``enabled = gc.isenabled();
    gc.disable(); ...; if enabled: gc.enable()`` per build is wrong
    when the service's workers build rows at once: thread B reads
    ``isenabled()`` False inside thread A's pause, A leaves and turns
    the collector back on, B turns it off, and B, having seen it off,
    leaves it off for good.  ``gc.collect()`` still works in a
    pause."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc: object) -> bool:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()
        return False


_COLLECTOR_PAUSE = _CollectorPause()


def _contiguous(data: ColumnData) -> ColumnData:
    """``data``, or a C-contiguous copy under the same memo."""
    if data.values.flags.c_contiguous and data.nulls.flags.c_contiguous:
        return data
    return ColumnData(data.sql_type, np.ascontiguousarray(data.values),
                      np.ascontiguousarray(data.nulls), data.memo)


def _type_runs(schema: TableSchema) -> list[tuple[SQLType, int]]:
    """``(type, width)`` per run of adjacent same-typed columns."""
    return [(sql_type, len(list(run))) for sql_type, run
            in itertools.groupby([c.sql_type for c in schema.columns])]


def _cut(blocks: Sequence[Block], widths: Sequence[int]
         ) -> list[list[Block]]:
    """``blocks`` re-cut at the boundaries of runs of ``widths``
    columns: per run, the block slices that cover it, in order."""
    remaining = iter(blocks)
    block, offset = None, 0
    out = []
    for width in widths:
        pieces = []
        while width:
            if block is None or offset == len(block.values):
                block, offset = next(remaining), 0
                continue
            k = min(width, len(block.values) - offset)
            pieces.append(block.sliced(offset, offset + k))
            offset += k
            width -= k
        out.append(pieces)
    return out


def _lookup_ci(mapping: dict[str, ColumnData], name: str) -> ColumnData:
    """Case-insensitive dict lookup for column names."""
    if name in mapping:
        return mapping[name]
    lowered = name.lower()
    for key, value in mapping.items():
        if key.lower() == lowered:
            return value
    raise KeyError(name)
