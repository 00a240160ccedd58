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
from repro.engine.schema import TableSchema
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

#: ``(start, stop, memos, key, offset)``: columns ``start:stop`` have
#: the memos of a sealed table's columns from ``offset`` on -- that
#: table's memo dict and sealing key, not the table, so a table built
#: from its columns keeps no more of it than its memos.
Lender = tuple[int, int, dict[int, EncodingMemo], str, int]


class Table:
    """A named, schema-typed collection of equal-length columns."""

    def __init__(self, schema: TableSchema,
                 columns: dict[str, ColumnData] | None = None):
        if columns is None:
            # An empty table states one block per run of same-typed
            # columns: a 1,201-column CREATE TABLE is two blocks.
            self._set(schema, [Block.all_null(sql_type, k, 0)
                               for sql_type, k in schema.runs], 0)
            return
        views: dict[int, ColumnData] = {}
        n_rows = None
        for position, (name, sql_type) in enumerate(
                zip(schema.names, schema.types())):
            # Exact names first: the executor's own tables always match.
            data = columns.get(name)
            if data is None:
                try:
                    data = _lookup_ci(columns, name)
                except KeyError:
                    raise ExecutionError(
                        f"missing data for column {name!r}") from None
            if data.sql_type != sql_type:
                raise ExecutionError(
                    f"column {name!r}: declared {sql_type} "
                    f"but data is {data.sql_type}")
            length = len(data.values)
            if n_rows is None:
                n_rows = length
            elif length != n_rows:
                raise ExecutionError(
                    f"column {name!r} has {length} rows, "
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
             version: Optional[int] = None,
             lenders: Sequence[Lender] = ()) -> None:
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
        #: Runs of columns whose memos are another table's, asked for
        #: a position at a time (:meth:`_memo_at`).
        self._lenders = tuple(lenders)
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
        """The memo of the column at ``position``: the one it has, else
        its lender's (the same column of the table it was taken from),
        else -- sealed -- one made now.  A column's memo is made on
        first request, so projecting a 1,201-column sealed table makes
        none until a column is read."""
        memo = self._memos.get(position)
        if memo is not None:
            return memo
        for start, stop, memos, key, offset in self._lenders:
            if start <= position < stop:
                q = position - start + offset
                memo = memos.get(q)
                if memo is None:
                    memo = memos.setdefault(q, EncodingMemo(key))
                break
        else:
            if self._sealed is not None:
                memo = EncodingMemo(self._sealed)
        if memo is not None:
            # setdefault: two threads keep one memo.
            memo = self._memos.setdefault(position, memo)
        return memo

    def _lent(self, start: int, stop: int, at: int) -> tuple[
            dict[int, EncodingMemo], list[Lender]]:
        """The memos of columns ``start:stop`` for a table that places
        them at ``at``: those made so far (by offset), and the lender
        runs the rest come from -- this table's own, cut to the
        columns, and, sealed, its memo dict for the columns those do
        not cover.  A lender names a sealed table's memos, never a
        table that lends, so a chain of projections stays one hop."""
        memos = {q - start: memo for q, memo in self._memos.items()
                 if start <= q < stop}
        lenders: list[Lender] = []
        done = start
        for first, last, lent, key, offset in self._lenders:
            lo, hi = max(first, start), min(last, stop)
            if lo >= hi:
                continue
            if self._sealed is not None and done < lo:
                lenders.append((at + done - start, at + lo - start,
                                self._memos, self._sealed, done))
            lenders.append((at + lo - start, at + hi - start, lent, key,
                            offset + lo - first))
            done = hi
        if self._sealed is not None and done < stop:
            lenders.append((at + done - start, at + stop - start,
                            self._memos, self._sealed, done))
        return memos, lenders

    def _memos_between(self, start: int, stop: int
                       ) -> dict[int, EncodingMemo]:
        """The memos of columns ``start:stop``, by offset: all of them
        when sealed or lent, so what is built from these columns shares
        them."""
        if self._sealed is None and not self._lenders:
            return {q - start: memo for q, memo in self._memos.items()
                    if start <= q < stop}
        return {q - start: memo for q in range(start, stop)
                if (memo := self._memo_at(q)) is not None}

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
        ``yield`` of :meth:`rows`).  A block at most as wide as it is
        long gives a list per column, and a run of such blocks is
        zipped into rows; a wider block -- an Hpct result's cells --
        gives a list per row (one transposed ``tolist``), so no row is
        zipped from thousands of lists."""
        if not self.schema.width() or start >= stop:
            return []
        with _COLLECTOR_PAUSE:
            parts: list[Any] = []
            columns: list[list[Any]] = []
            for block in self._blocks:
                piece = block.sliced_rows(start, stop)
                if len(piece.values) <= piece.values.shape[1]:
                    columns.extend(piece.to_lists())
                    continue
                if columns:
                    parts.append(zip(*columns))
                    columns = []
                parts.append(piece.row_lists())
            if not parts:
                return list(zip(*columns))
            if columns:
                parts.append(zip(*columns))
            if len(parts) == 1:
                return list(map(tuple, parts[0]))
            return [tuple(itertools.chain.from_iterable(row))
                    for row in zip(*parts)]

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
        for i, (name, sql_type) in enumerate(zip(schema.names,
                                                 schema.types())):
            columns[name] = ColumnData.from_values(
                sql_type, (r[i] for r in rows))
        return cls(schema, columns)

    @classmethod
    def from_columns(cls, name: str,
                     named: Sequence[tuple[str, ColumnData]],
                     primary_key: Sequence[str] = ()) -> "Table":
        """Build a table (and its schema) from named column data."""
        schema = TableSchema.build(
            name, [(n, c.sql_type) for n, c in named], primary_key)
        return cls(schema, dict(named))

    @classmethod
    def from_blocks(cls, schema: TableSchema,
                    blocks: Sequence[Block]) -> "Table":
        """A table over ``blocks``, in schema order: each block is
        checked once -- its type against the columns it covers, its
        length against the first block's."""
        types = schema.types()
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
                                for sql_type, k in schema.runs],
                       length)

    @classmethod
    def assemble(cls, name: str,
                 parts: Sequence[tuple[Sequence[str], Part]]) -> "Table":
        """A result table from named parts in column order, each with
        as many names as it has columns: a column (kept as it is), a
        block, or ``(table, start, stop)`` -- that table's columns,
        sliced off its blocks with their views, their memos lent run
        by run (:meth:`_memo_at`).  The schema is declared a part at a
        time: the names, and a type run per part (a table's columns as
        its runs); the whole of a table under its own names keeps its
        schema."""
        schema = None
        if len(parts) == 1 and type(parts[0][1]) is tuple:
            names, (source, start, stop) = parts[0]
            if start == 0 and stop == source.schema.width() \
                    and tuple(names) == source.schema.names:
                schema = source.schema.renamed(name, primary_key=())
        all_names: list[str] = []
        runs: list[tuple[SQLType, int]] = []
        blocks: list[Block] = []
        views: dict[int, ColumnData] = {}
        memos: dict[int, EncodingMemo] = {}
        lenders: list[Lender] = []
        for names, part in parts:
            position = len(all_names)
            all_names.extend(names)
            if isinstance(part, ColumnData):
                part = _contiguous(part)
                runs.append((part.sql_type, 1))
                blocks.append(Block.of(part))
                views[position] = part
                if part.memo is not None:
                    memos[position] = part.memo
            elif isinstance(part, Block):
                runs.append((part.sql_type, len(names)))
                blocks.append(part)
            else:
                source, start, stop = part
                runs.extend(source.schema.runs_between(start, stop))
                run, run_views, run_memos, run_lenders = source._run(
                    start, stop, position)
                blocks.extend(run)
                for q, view in run_views.items():
                    views[position + q] = view
                    if view.memo is not None:
                        memos[position + q] = view.memo
                memos.update((position + q, memo)
                             for q, memo in run_memos.items())
                lenders.extend(run_lenders)
        if schema is None:
            schema = TableSchema(name, all_names, runs)
        n_rows = blocks[0].values.shape[1] if blocks else 0
        return cls._of(schema, blocks, n_rows, views=views, memos=memos,
                       lenders=lenders)

    def _run(self, start: int, stop: int, at: int = 0) -> tuple[
            list[Block], dict[int, ColumnData], dict[int, EncodingMemo],
            list[Lender]]:
        """Columns ``start:stop`` as :meth:`assemble` takes them, to be
        placed at ``at``: the blocks, the views and memos made (by
        offset) and the lender runs the other memos come from."""
        return (self._sliced(start, stop),
                {q - start: view for q, view in self._views.items()
                 if start <= q < stop},
                *self._lent(start, stop, at))

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
        runs = schema.runs
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
                        f"column {self.schema.names[start]!r}: "
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
        for name in self.schema.names:
            if name.lower() not in assigned:
                updated = updated.replace_column(
                    name, updated.column(name).copy())
        return updated

    def renamed(self, new_name: str) -> "Table":
        """The same data under a different table name: the same
        blocks, views and memos, and the same version (identical
        content)."""
        return Table._of(self.schema.renamed(new_name), self._blocks,
                         self._n_rows, views=self._views,
                         memos=self._memos, sealed=self._sealed,
                         version=self.version, lenders=self._lenders)

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
