"""Table schemas: ordered, typed column definitions plus key metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class TableSchema:
    """An ordered list of column definitions with an optional primary key.

    Column names are case-preserving but matched case-insensitively, as
    in SQL.  The primary key is metadata only -- uniqueness enforcement
    is the loader's concern -- but the executor uses it to pick join and
    update keys, mirroring how the paper relies on primary-key indexes.
    """

    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Case-folded name -> position, built once: every lookup below
        # answers from it (a 1,201-column Hpct result resolves
        # thousands of names per statement).
        self._positions: dict[str, int] = {}
        for i, col in enumerate(self.columns):
            if self._positions.setdefault(col.name.lower(), i) != i:
                raise CatalogError(
                    f"duplicate column {col.name!r} in table {self.name!r}")
        for key_col in self.primary_key:
            if not self.has_column(key_col):
                raise CatalogError(
                    f"primary key column {key_col!r} not in table "
                    f"{self.name!r}")

    def renamed(self, name: str) -> "TableSchema":
        """The same columns and key under another table name, sharing
        the column list and the name index instead of rebuilding them
        (schemas are immutable by convention)."""
        schema = TableSchema.__new__(TableSchema)
        schema.__dict__.update(self.__dict__, name=name)
        return schema

    # ------------------------------------------------------------------
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._positions

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.column_index(name)]

    def position(self, name: str) -> Optional[int]:
        """Lower-cased ``name``'s position, or None."""
        return self._positions.get(name)

    def column_index(self, name: str) -> int:
        try:
            return self._positions[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r}") from None

    def column_type(self, name: str) -> SQLType:
        return self.column(name).sql_type

    def width(self) -> int:
        return len(self.columns)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, name: str, columns: Iterable[tuple[str, SQLType]],
              primary_key: Sequence[str] = ()) -> "TableSchema":
        """Convenience constructor from ``(name, type)`` pairs."""
        defs = [ColumnDef(n, t) for n, t in columns]
        return cls(name=name, columns=defs,
                   primary_key=tuple(primary_key))
