"""Columnar value storage with an explicit validity mask.

A :class:`ColumnData` couples a dense numpy value array with a boolean
``nulls`` mask of the same length (``True`` marks NULL).  Keeping NULLs
out-of-band lets integer columns stay ``int64`` (no NaN sentinel) and
makes three-valued logic explicit everywhere.

Instances are the unit of data flow inside the engine: table columns,
intermediate expression results and aggregate outputs are all
``ColumnData``.  A :class:`Block` is a run of adjacent same-typed
columns held as one ``k x n`` pair of arrays -- how a
:class:`~repro.engine.table.Table` stores its columns, so a wide
result moves in one numpy call per block, not one Python call per
column; each of its columns is a zero-copy ``ColumnData`` view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Iterable, Iterator, Optional,
                    Sequence)

import numpy as np

from repro.engine.types import NULL_FILLERS, SQLType, coerce_scalar
from repro.errors import TypeMismatchError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.groupby import EncodedColumn


class EncodingMemo:
    """The dictionary encoding of one sealed base-table column, filled
    by the first :func:`~repro.engine.groupby.encode_column` that reads
    it and returned by every later one.

    A sealed column never changes -- DML publishes new columns -- so
    the memo is never stale and lives exactly as long as its column.
    Two threads filling it at once compute identical encodings, so it
    needs no lock.  ``table`` names the table that sealed it, for the
    ``encoding-cache`` charge event.
    """

    __slots__ = ("table", "encoded")

    def __init__(self, table: str):
        self.table = table
        self.encoded: Optional["EncodedColumn"] = None


# Slotted: a wide group frame holds one per aggregate, thousands.
@dataclass(slots=True, weakref_slot=True)
class ColumnData:
    """A typed vector of SQL values with NULL tracking.

    Attributes:
        sql_type: declared SQL type of every non-NULL value.
        values: dense numpy array of ``sql_type.numpy_dtype``; positions
            where ``nulls`` is True hold an arbitrary filler.
        nulls: boolean numpy array, True where the value is NULL.
        memo: the :class:`EncodingMemo` the catalog gives a column
            when it seals a base table; None for intermediates.
    """

    sql_type: SQLType
    values: np.ndarray
    nulls: np.ndarray
    memo: Optional["EncodingMemo"] = field(default=None, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        if len(self.values) != len(self.nulls):
            raise ValueError("values and nulls must have equal length")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, sql_type: SQLType) -> "ColumnData":
        """A zero-length column of the given type."""
        return cls(sql_type,
                   np.empty(0, dtype=sql_type.numpy_dtype),
                   np.empty(0, dtype=bool))

    @classmethod
    def from_values(cls, sql_type: SQLType,
                    raw: Iterable[Any]) -> "ColumnData":
        """Build a column from an iterable of Python values (None = NULL).

        Values are validated/coerced one by one; this path is meant for
        small literal data (tests, examples, INSERT ... VALUES), not for
        the bulk loader, which constructs arrays directly.
        """
        raw = list(raw)
        nulls = np.fromiter((v is None for v in raw), dtype=bool,
                            count=len(raw))
        filler = NULL_FILLERS[sql_type]
        coerced = [filler if v is None else coerce_scalar(v, sql_type)
                   for v in raw]
        values = np.array(coerced, dtype=sql_type.numpy_dtype)
        return cls(sql_type, values, nulls)

    @classmethod
    def from_arrays(cls, sql_type: SQLType, values: np.ndarray,
                    nulls: np.ndarray | None = None) -> "ColumnData":
        """Wrap pre-built arrays (bulk path; no per-value validation)."""
        values = np.asarray(values, dtype=sql_type.numpy_dtype)
        if nulls is None:
            nulls = np.zeros(len(values), dtype=bool)
        else:
            nulls = np.asarray(nulls, dtype=bool)
        return cls(sql_type, values, nulls)

    @classmethod
    def all_null(cls, sql_type: SQLType, length: int) -> "ColumnData":
        """A column of ``length`` NULLs."""
        if sql_type == SQLType.VARCHAR:
            values = np.full(length, "", dtype=object)
        else:
            # zeros() is markedly faster than full() and the fillers
            # for the numeric/boolean types are all zero.
            values = np.zeros(length, dtype=sql_type.numpy_dtype)
        return cls(sql_type, values, np.ones(length, dtype=bool))

    @classmethod
    def constant(cls, sql_type: SQLType, value: Any,
                 length: int) -> "ColumnData":
        """A column repeating one value (or NULL) ``length`` times."""
        if value is None:
            return cls.all_null(sql_type, length)
        coerced = coerce_scalar(value, sql_type)
        if sql_type != SQLType.VARCHAR and not coerced:
            values = np.zeros(length, dtype=sql_type.numpy_dtype)
        else:
            values = np.full(length, coerced,
                             dtype=sql_type.numpy_dtype)
        return cls(sql_type, values, np.zeros(length, dtype=bool))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Any:
        """The Python value at row ``i`` (None for NULL)."""
        if self.nulls[i]:
            return None
        value = self.values[i]
        if self.sql_type == SQLType.INTEGER:
            return int(value)
        if self.sql_type == SQLType.REAL:
            return float(value)
        if self.sql_type == SQLType.BOOLEAN:
            return bool(value)
        return value

    def to_pylist(self) -> list[Any]:
        """Materialize as a list of Python values (None for NULL).

        Bulk path: ``ndarray.tolist()`` converts the whole vector to
        native Python values at C speed, then NULL positions are
        patched in from the validity mask.  This sits on the
        result-materialization path of every cursor fetch.
        """
        values = self.values.tolist()
        if self.nulls.any():
            for i in np.flatnonzero(self.nulls):
                values[i] = None
        return values

    def iter_values(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self[i]

    def null_count(self) -> int:
        return int(self.nulls.sum())

    # ------------------------------------------------------------------
    # Transformations (all return new ColumnData; storage is immutable
    # by convention -- tables replace whole columns on update)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "ColumnData":
        """Gather rows by position."""
        return ColumnData(self.sql_type, self.values[indices],
                          self.nulls[indices])

    def filter(self, mask: np.ndarray) -> "ColumnData":
        """Keep rows where ``mask`` is True."""
        return ColumnData(self.sql_type, self.values[mask],
                          self.nulls[mask])

    def cast(self, target: SQLType) -> "ColumnData":
        """Cast to ``target`` (only numeric widenings are supported)."""
        if target == self.sql_type:
            return self
        if self.sql_type == SQLType.INTEGER and target == SQLType.REAL:
            return ColumnData(target, self.values.astype(np.float64),
                              self.nulls.copy())
        if self.sql_type == SQLType.BOOLEAN and target == SQLType.INTEGER:
            return ColumnData(target, self.values.astype(np.int64),
                              self.nulls.copy())
        if self.sql_type == SQLType.BOOLEAN and target == SQLType.REAL:
            return ColumnData(target, self.values.astype(np.float64),
                              self.nulls.copy())
        raise TypeMismatchError(
            f"cannot cast {self.sql_type} to {target}")

    def copy(self) -> "ColumnData":
        # The copy has identical content, so it shares the memo (e.g.
        # the window spool copies partition keys before encoding).
        return ColumnData(self.sql_type, self.values.copy(),
                          self.nulls.copy(), memo=self.memo)

    @staticmethod
    def concat(parts: Sequence["ColumnData"]) -> "ColumnData":
        """Concatenate columns of the same type."""
        if not parts:
            raise ValueError("concat requires at least one column")
        sql_type = parts[0].sql_type
        for part in parts[1:]:
            if part.sql_type != sql_type:
                raise TypeMismatchError(
                    f"cannot concat {part.sql_type} into {sql_type}")
        values = np.concatenate([p.values for p in parts])
        nulls = np.concatenate([p.nulls for p in parts])
        return ColumnData(sql_type, values, nulls)


@dataclass(slots=True)
class Block:
    """``k`` adjacent columns of one SQL type over the same ``n`` rows.

    ``values`` and ``nulls`` are C-contiguous ``k x n`` arrays stored
    column-major: row ``j`` holds column ``j``, so :meth:`column` is a
    contiguous 1-D view and a kernel over one column sees the same
    arrays a ``ColumnData`` of its own would hold.  Blocks are
    immutable by convention, like columns.
    """

    sql_type: SQLType
    values: np.ndarray
    nulls: np.ndarray

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, column: ColumnData) -> "Block":
        """One column as a one-column block (zero-copy: C-contiguous
        when the column is)."""
        return cls(column.sql_type, column.values[None], column.nulls[None])

    @classmethod
    def all_null(cls, sql_type: SQLType, width: int,
                 length: int) -> "Block":
        """``width`` columns of ``length`` NULLs (the fillers of
        :meth:`ColumnData.all_null`)."""
        if sql_type == SQLType.VARCHAR:
            values = np.full((width, length), "", dtype=object)
        else:
            values = np.zeros((width, length), dtype=sql_type.numpy_dtype)
        return cls(sql_type, values, np.ones((width, length), dtype=bool))

    @staticmethod
    def concat(parts: Sequence["Block"]) -> "Block":
        """The rows of ``parts`` (same type and width) end to end:
        one ``np.concatenate`` per array."""
        return Block(parts[0].sql_type,
                     np.concatenate([p.values for p in parts], axis=1),
                     np.concatenate([p.nulls for p in parts], axis=1))

    @staticmethod
    def stack(parts: Sequence["Block"]) -> "Block":
        """The columns of ``parts`` (same type, same rows) side by side
        as one block; a lone part is itself."""
        if len(parts) == 1:
            return parts[0]
        return Block(parts[0].sql_type,
                     np.concatenate([p.values for p in parts]),
                     np.concatenate([p.nulls for p in parts]))

    # ------------------------------------------------------------------
    def column(self, j: int,
               memo: Optional[EncodingMemo] = None) -> ColumnData:
        """Column ``j`` as a zero-copy view."""
        return ColumnData(self.sql_type, self.values[j], self.nulls[j],
                          memo)

    def columns(self) -> list[ColumnData]:
        return [self.column(j) for j in range(len(self.values))]

    def sliced(self, start: int, stop: int) -> "Block":
        """Columns ``start:stop`` (zero-copy)."""
        if start == 0 and stop == len(self.values):
            return self
        return Block(self.sql_type, self.values[start:stop],
                     self.nulls[start:stop])

    def sliced_rows(self, start: int, stop: int) -> "Block":
        """Rows ``start:stop`` of every column (zero-copy)."""
        if start == 0 and stop >= self.values.shape[1]:
            return self
        return Block(self.sql_type, self.values[:, start:stop],
                     self.nulls[:, start:stop])

    def to_lists(self) -> list[list[Any]]:
        """Each column as a list of Python values (None for NULL): one
        ``tolist`` for the block, then NULLs patched in."""
        return _patched(self.values.tolist(), self.nulls)

    def row_lists(self) -> list[list[Any]]:
        """Each row as a list of Python values (None for NULL): one
        transposed ``tolist`` for the block, then NULLs patched in --
        for a block wider than it is long, where zipping a list per
        column costs a call per column per row."""
        return _patched(self.values.T.tolist(), self.nulls.T)

    # ------------------------------------------------------------------
    # Row-set transformations: one numpy call per array, C-contiguous
    # out (``take`` / ``compress`` along the rows, not fancy indexing).
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Block":
        return Block(self.sql_type, np.take(self.values, indices, axis=1),
                     np.take(self.nulls, indices, axis=1))

    def filter(self, mask: np.ndarray) -> "Block":
        return Block(self.sql_type, np.compress(mask, self.values, axis=1),
                     np.compress(mask, self.nulls, axis=1))

    def null_out(self, mask: np.ndarray) -> "Block":
        """The same values, NULL also where ``mask`` is True."""
        return Block(self.sql_type, self.values, self.nulls | mask)


def _patched(lists: list[list[Any]], nulls: np.ndarray
             ) -> list[list[Any]]:
    """``lists`` (``nulls``-shaped) with None where ``nulls`` is
    True."""
    if nulls.any():
        outer, inner = np.nonzero(nulls)
        for j, i in zip(outer.tolist(), inner.tolist()):
            lists[j][i] = None
    return lists
