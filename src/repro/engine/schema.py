"""Table schemas: ordered, typed column definitions plus key metadata."""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.engine.types import SQLType
from repro.errors import CatalogError


#: Default ceiling on columns per table.  Real DBMSs have such limits
#: (the paper discusses hitting them with horizontal aggregations); the
#: catalog can lower it to exercise vertical partitioning.
DEFAULT_MAX_COLUMNS = 2048

#: Default ceiling on identifier length (Teradata's classic limit was 30).
DEFAULT_MAX_NAME_LENGTH = 128


@dataclass(frozen=True, slots=True)
class ColumnDef:
    """One column: a name and a SQL type."""

    name: str
    sql_type: SQLType

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name} {self.sql_type}"


class TableSchema:
    """An ordered list of typed columns with an optional primary key.

    A schema is held as its column names and the runs of adjacent
    same-typed columns -- a 1,201-column FH table is 1,201 names and
    two runs -- so a wide table is declared, sliced and assembled a
    run at a time; a :class:`ColumnDef` is made only where one is
    asked for (:attr:`columns`, :meth:`column`).

    Column names are case-preserving but matched case-insensitively, as
    in SQL.  The primary key is metadata only -- uniqueness enforcement
    is the loader's concern -- but the executor uses it to pick join and
    update keys, mirroring how the paper relies on primary-key indexes.
    Schemas are immutable by convention.
    """

    __slots__ = ("name", "primary_key", "names", "runs", "index",
                 "_ends", "_columns")

    def __init__(self, name: str, names: Sequence[str],
                 runs: Iterable[tuple[SQLType, int]],
                 primary_key: Sequence[str] = ()) -> None:
        """The schema of columns ``names`` typed by ``runs``, each a
        ``(type, width)`` run of adjacent columns."""
        self.name = name
        self.names = tuple(names)
        #: ``(type, width)`` per run of adjacent same-typed columns,
        #: adjacent runs of one type merged.
        self.runs = _merged(runs)
        self.primary_key = tuple(primary_key)
        self._columns: Optional[list[ColumnDef]] = None
        #: Where each run ends, for :meth:`type_at`'s bisection.
        self._ends = list(itertools.accumulate(
            width for _, width in self.runs))
        if (self._ends[-1] if self._ends else 0) != len(self.names):
            raise CatalogError(
                f"table {name!r}: {len(self.names)} column names for "
                f"{sum(width for _, width in self.runs)} typed columns")
        #: Case-folded name -> position, built once in one pass: every
        #: lookup below answers from it (read-only).
        self.index = dict(zip(map(str.lower, self.names),
                              range(len(self.names))))
        if len(self.index) != len(self.names):
            seen: set[str] = set()
            for column in self.names:
                if column.lower() in seen:
                    raise CatalogError(f"duplicate column {column!r} in "
                                       f"table {name!r}")
                seen.add(column.lower())
        for key_col in self.primary_key:
            if not self.has_column(key_col):
                raise CatalogError(
                    f"primary key column {key_col!r} not in table "
                    f"{name!r}")

    def renamed(self, name: str,
                primary_key: Optional[Sequence[str]] = None
                ) -> "TableSchema":
        """The same columns under another table name -- with the same
        key, or ``primary_key`` (one of the columns, or none) -- sharing
        the names, runs and name index instead of rebuilding them."""
        schema = TableSchema.__new__(TableSchema)
        for slot in TableSchema.__slots__:
            setattr(schema, slot, getattr(self, slot))
        schema.name = name
        if primary_key is not None:
            schema.primary_key = tuple(primary_key)
        return schema

    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[ColumnDef]:
        """One :class:`ColumnDef` per column, made on first use."""
        if self._columns is None:
            self._columns = list(map(ColumnDef, self.names, self.types()))
        return self._columns

    def column_names(self) -> list[str]:
        return list(self.names)

    def types(self) -> list[SQLType]:
        """Each column's type, in order."""
        return list(itertools.chain.from_iterable(
            itertools.repeat(sql_type, width)
            for sql_type, width in self.runs))

    def runs_between(self, start: int, stop: int
                     ) -> list[tuple[SQLType, int]]:
        """The runs of columns ``start:stop``, cut at the ends."""
        out, at = [], 0
        for sql_type, width in self.runs:
            lo, hi = max(start, at), min(stop, at + width)
            if lo < hi:
                out.append((sql_type, hi - lo))
            at += width
        return out

    def has_column(self, name: str) -> bool:
        return name.lower() in self.index

    def column(self, name: str) -> ColumnDef:
        position = self.column_index(name)
        return ColumnDef(self.names[position], self.type_at(position))

    def position(self, name: str) -> Optional[int]:
        """Lower-cased ``name``'s position, or None."""
        return self.index.get(name)

    def column_index(self, name: str) -> int:
        try:
            return self.index[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}") from None

    def column_type(self, name: str) -> SQLType:
        return self.type_at(self.column_index(name))

    def type_at(self, position: int) -> SQLType:
        """The type of the column at ``position``."""
        if not 0 <= position < len(self.names):
            raise IndexError(position)
        return self.runs[bisect.bisect_right(self._ends, position)][0]

    def width(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, name: str, columns: Iterable[tuple[str, SQLType]],
              primary_key: Sequence[str] = ()) -> "TableSchema":
        """Convenience constructor from ``(name, type)`` pairs."""
        pairs = list(columns)
        return cls(name, [n for n, _ in pairs], [(t, 1) for _, t in pairs],
                   primary_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TableSchema({self.name!r}, {len(self.names)} columns "
                f"in {len(self.runs)} runs)")


def _merged(runs: Iterable[tuple[SQLType, int]]
            ) -> tuple[tuple[SQLType, int], ...]:
    """``runs`` with adjacent runs of one type joined and empty ones
    dropped."""
    out: list[tuple[SQLType, int]] = []
    for sql_type, width in runs:
        if not width:
            continue
        if out and out[-1][0] == sql_type:
            out[-1] = (sql_type, out[-1][1] + width)
        else:
            out.append((sql_type, width))
    return tuple(out)
