"""In-memory columnar tables.

A :class:`Table` owns one :class:`~repro.engine.column.ColumnData` per
schema column, all of equal length.  Tables are the engine's only data
container: base tables live in the catalog, while query execution
passes intermediate ``Table`` objects between operators.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.engine.column import ColumnData, EncodingMemo
from repro.engine.schema import ColumnDef, TableSchema
from repro.engine.types import SQLType
from repro.errors import ExecutionError


#: Globally unique, monotonically increasing table versions.  Every
#: Table instance gets a fresh version (DML always swaps in a new
#: instance via the catalog), so equal identities imply equal content.
_VERSION_COUNTER = itertools.count(1)


class Table:
    """A named, schema-typed collection of equal-length columns."""

    def __init__(self, schema: TableSchema,
                 columns: dict[str, ColumnData] | None = None):
        self.schema = schema
        self.version = next(_VERSION_COUNTER)
        if columns is None:
            columns = {c.name: ColumnData.empty(c.sql_type)
                       for c in schema.columns}
        self._columns: dict[str, ColumnData] = {}
        n_rows = None
        for col_def in schema.columns:
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
            self._columns[col_def.name] = data

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def n_rows(self) -> int:
        if not self.schema.columns:
            return 0
        first = self.schema.columns[0].name
        return len(self._columns[first])

    def identity(self) -> tuple[str, int]:
        """A hashable ``(name, version)`` identity for this table
        state.  Versions are globally unique and every DML publishes a
        new Table, so equal identities imply byte-identical content --
        the key the service's snapshot bookkeeping and the stress
        suite's shadow model are built on."""
        return (self.name.lower(), self.version)

    def column(self, name: str) -> ColumnData:
        """The column data for ``name`` (case-insensitive)."""
        try:
            return _lookup_ci(self._columns, name)
        except KeyError:
            raise ExecutionError(
                f"no column {name!r} in table {self.name!r}") from None

    def find(self, name: str) -> ColumnData | None:
        """The column data for lower-cased ``name``, or None."""
        position = self.schema.position(name)
        return None if position is None \
            else self._columns[self.schema.columns[position].name]

    def column_names(self) -> list[str]:
        return self.schema.column_names()

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate rows as tuples of Python values (None for NULL)."""
        cols = [self._columns[c.name] for c in self.schema.columns]
        for i in range(self.n_rows):
            yield tuple(col[i] for col in cols)

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialize all rows (bulk path: one ``to_pylist`` per
        column, zipped, instead of a per-cell Python loop)."""
        if not self.schema.columns or self.n_rows == 0:
            return []
        lists = [self._columns[c.name].to_pylist()
                 for c in self.schema.columns]
        return list(zip(*lists))

    def row(self, i: int) -> tuple[Any, ...]:
        return tuple(self._columns[c.name][i] for c in self.schema.columns)

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

    # ------------------------------------------------------------------
    # Row-set transformations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by position into a new table."""
        columns = {n: c.take(indices) for n, c in self._columns.items()}
        return Table(self.schema, columns)

    def filter(self, mask: np.ndarray) -> "Table":
        """Keep rows where ``mask`` is True."""
        columns = {n: c.filter(mask) for n, c in self._columns.items()}
        return Table(self.schema, columns)

    def append(self, other: "Table") -> "Table":
        """A new table with ``other``'s rows appended (schemas must align
        positionally by type)."""
        if other.schema.width() != self.schema.width():
            raise ExecutionError(
                f"cannot append {other.schema.width()}-column rows to "
                f"{self.schema.width()}-column table {self.name!r}")
        columns = {}
        for mine, theirs in zip(self.schema.columns, other.schema.columns):
            if mine.sql_type != theirs.sql_type:
                raise ExecutionError(
                    f"column {mine.name!r}: cannot append {theirs.sql_type} "
                    f"to {mine.sql_type}")
            columns[mine.name] = ColumnData.concat(
                [self._columns[mine.name], other._columns[theirs.name]])
        return Table(self.schema, columns)

    def replace_column(self, name: str, data: ColumnData) -> "Table":
        """A new table with one column's data replaced (same type)."""
        col_def = self.schema.column(name)
        if data.sql_type != col_def.sql_type:
            raise ExecutionError(
                f"column {name!r}: cannot replace {col_def.sql_type} "
                f"with {data.sql_type}")
        if len(data) != self.n_rows:
            raise ExecutionError(
                f"replacement column has {len(data)} rows, "
                f"table has {self.n_rows}")
        columns = dict(self._columns)
        columns[col_def.name] = data
        return Table(self.schema, columns)

    def renamed(self, new_name: str) -> "Table":
        """The same data under a different table name."""
        schema = TableSchema(name=new_name,
                             columns=list(self.schema.columns),
                             primary_key=self.schema.primary_key)
        renamed = Table(schema, self._columns)
        renamed.version = self.version  # identical content
        return renamed

    # ------------------------------------------------------------------
    def seal(self) -> None:
        """Give every column an encoding memo, unless it has one.
        Called by the catalog when this table becomes (or replaces) a
        base table; intermediate result tables are never sealed, so
        only base-table columns memoize their encodings.  A column
        another base table sealed first (``CREATE TABLE t2 AS SELECT *
        FROM t``, the columns an UPDATE left alone) has the same
        content, so it keeps that table's memo."""
        table_key = self.name.lower()
        for data in self._columns.values():
            if data.memo is None:
                data.memo = EncodingMemo(table_key)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(str(c) for c in self.schema.columns)
        return f"<Table {self.name} [{cols}] rows={self.n_rows}>"


def _lookup_ci(mapping: dict[str, ColumnData], name: str) -> ColumnData:
    """Case-insensitive dict lookup for column names."""
    if name in mapping:
        return mapping[name]
    lowered = name.lower()
    for key, value in mapping.items():
        if key.lower() == lowered:
            return value
    raise KeyError(name)
