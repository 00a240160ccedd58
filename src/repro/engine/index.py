"""Hash indexes on column sets.

The paper's vertical-percentage optimization recommends identical
indexes on the common subkey of ``Fj`` and ``Fk`` to speed up the
division join.  An index stores a pre-digested
:class:`~repro.engine.join.PreparedJoinSide` for its columns, so a join
whose build keys are covered by an index skips the hash-build phase --
the same saving a DBMS gets.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.join import PreparedJoinSide, prepare_side
from repro.engine.table import Table


class HashIndex:
    """An equality index mapping key tuples to row positions."""

    def __init__(self, name: str, table_name: str,
                 column_names: Sequence[str]):
        self.name = name
        self.table_name = table_name
        #: indexed columns, lower-cased, in declaration order
        self.column_names = tuple(c.lower() for c in column_names)
        self.prepared: PreparedJoinSide | None = None
        self._table: Table | None = None

    # ------------------------------------------------------------------
    def rebuild(self, table: Table, cache=None) -> None:
        """(Re)digest the index from the table's current contents.

        ``cache`` (an :class:`~repro.engine.encoding_cache.
        EncodingCache`) lets the rebuild share per-column dictionaries
        with GROUP BY/join encodings of the same table version.
        """
        self._table = table
        columns = [table.column(c) for c in self.column_names]
        self.prepared = prepare_side(columns, cache)

    def source_table(self) -> Table | None:
        """The table object this index was last digested from (used by
        catalog rollback to spot stale in-place rebuilds)."""
        return self._table

    def covers(self, column_names: Sequence[str]) -> bool:
        """True when this index is exactly on ``column_names``
        (order-insensitive, case-insensitive)."""
        return set(self.column_names) == {c.lower() for c in column_names}

    @property
    def built_rows(self) -> int:
        return self.prepared.n_rows if self.prepared else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(self.column_names)
        return (f"<HashIndex {self.name} on {self.table_name}({cols}) "
                f"rows={self.built_rows}>")
