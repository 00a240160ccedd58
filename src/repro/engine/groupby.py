"""Grouping machinery: vectorized factorization of key columns.

Everything that needs "rows with equal keys" -- GROUP BY, DISTINCT,
window partitions, hash joins -- goes through :func:`factorize`:

1. each key column is *encoded* to dense integer codes (NULL gets its
   own code, so SQL GROUP BY semantics of NULLs-compare-equal hold) --
   by counting when it is an INTEGER column with a dense value range,
   by ``np.unique`` otherwise (the density rule again);
2. multi-column keys are combined either by mixed-radix arithmetic (the
   fast path, when the code space fits in int64) or by lexicographic
   ``np.unique(axis=0)``;
3. the (combined) codes are ranked in ascending order -- by a counting
   pass over the code space when it is small for the row count, by
   ``np.unique`` when it is sparse (the density rule,
   :func:`counting_pass_fits`); both yield the same arrays;
4. the result is a :class:`Grouping`: one group id per row, the group
   count, and per-column representative values for each group.

A *full dictionary* -- the encoding :func:`encode_column` builds, every
code ``1..len(uniques)`` occurring -- is already that ranking for its
one column: grouping by it alone reads the codes as group ids, its
first rows are computed once and kept on it, and a one-group
``count(DISTINCT)`` over it is ``len(uniques)``
(docs/engine_internals.md, "Encoding memos").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.engine import faults
from repro.engine.column import ColumnData
from repro.engine.types import SQLType
from repro.obs import tracer as tracer_mod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.stats import StatsCollector


@dataclass
class EncodedColumn:
    """One key column reduced to dense codes.

    ``codes[i]`` is 0 when row ``i`` is NULL, otherwise
    ``1 + rank of the value`` in ``uniques`` (which is sorted).
    ``cardinality`` = ``len(uniques) + 1`` (the NULL slot).
    """

    codes: np.ndarray
    uniques: np.ndarray
    sql_type: SQLType
    #: A full dictionary: every code ``1..len(uniques)`` occurs, and
    #: ``has_null`` says whether code 0 does.  Only
    #: :func:`_encode_values` claims it; an encoding built by hand (the
    #: pivot kernel's group-id and combination columns) does not, and
    #: is ranked like any other codes.
    full: bool = False
    has_null: bool = False
    #: A full dictionary's first row per group id, filled by the first
    #: :meth:`first_rows` (see there).
    firsts: Optional[np.ndarray] = field(default=None, init=False,
                                         repr=False, compare=False)

    #: Instances are shared through column memos; treat ``codes``,
    #: ``uniques`` and ``firsts`` as immutable (``_encode_values``
    #: makes the arrays it builds read-only).

    @property
    def cardinality(self) -> int:
        return len(self.uniques) + 1

    def first_rows(self) -> np.ndarray:
        """The first row of each group of a full dictionary's grouping
        (:func:`_factorize_single`), ordered by group id: one pass over
        the codes the first time it is asked, then kept, so a memo
        answers it once per sealed column.  Two threads filling it at
        once compute the same array, so it needs no lock."""
        firsts = self.firsts
        if firsts is None:
            # Slot 0 is NULL's; without NULLs no row fills it, and the
            # group ids start at code 1.
            firsts = first_positions(self.codes, self.cardinality)[
                0 if self.has_null else 1:]
            firsts.flags.writeable = False
            self.firsts = firsts
        return firsts

    def decode(self, codes: np.ndarray) -> ColumnData:
        """Map codes back to a value column (code 0 -> NULL)."""
        nulls = codes == 0
        safe = np.where(nulls, 1, codes) - 1
        if len(self.uniques):
            values = self.uniques[safe]
        else:
            values = np.full(len(codes), 0, dtype=object)
        values = np.asarray(values, dtype=self.sql_type.numpy_dtype)
        if nulls.any():
            values = values.copy()
        return ColumnData(self.sql_type, values, nulls)


def encode_column(col: ColumnData,
                  stats: Optional["StatsCollector"] = None
                  ) -> EncodedColumn:
    """Encode one column to dense integer codes (NULL -> 0).

    ``uniques`` holds exactly the distinct **non-NULL** values: NULL
    lanes are excluded before encoding rather than substituted with a
    filler, so a NULL-bearing VARCHAR column no longer grows a
    spurious ``""`` dictionary entry (and numeric fillers no longer
    inflate ``cardinality``).

    A query passes its ``stats``: a sealed base-table column is then
    encoded once, into its :class:`~repro.engine.column.EncodingMemo`,
    and every read of the memo is charged as an ``encode_cache_hits``
    or ``encode_cache_misses``.  Without ``stats`` (view maintenance)
    the column is encoded afresh.
    """
    memo = col.memo
    if stats is None or memo is None:
        return _encode_values(col)
    encoded = memo.encoded
    counter = ("encode_cache_misses" if encoded is None
               else "encode_cache_hits")
    stats.add(**{counter: 1})
    tracer = tracer_mod.active_tracer()
    if tracer is not None and tracer.enabled:
        tracer.event("encoding-cache", kind="charge", table=memo.table,
                     **{counter: 1})
    if encoded is None:
        encoded = memo.encoded = _encode_values(col)
    return encoded


def _encode_values(col: ColumnData) -> EncodedColumn:
    """The full dictionary of ``col``: ``uniques`` are the values
    present, so every code ``1..len(uniques)`` occurs.

    An INTEGER column whose value range is dense for its rows (the
    density rule, :func:`counting_pass_fits`) is encoded by counting
    (:func:`_encode_dense`); any other column by ``np.unique``.  Both
    give the same arrays."""
    n = len(col)
    has_null = bool(col.nulls.any())
    valid = ~col.nulls if has_null else None
    present = col.values[valid] if has_null else col.values
    dense = _encode_dense(present) \
        if col.sql_type == SQLType.INTEGER and len(present) else None
    if dense is not None:
        uniques, ranks = dense
        if has_null:
            codes = np.zeros(n, dtype=np.int64)
            codes[valid] = ranks
        else:
            codes = ranks.astype(np.int64)
    elif n == 0:
        # The values' dtype, not the SQL type's: an untyped NULL
        # column (``GROUP BY NULL``) has none.
        codes = np.empty(0, dtype=np.int64)
        uniques = np.empty(0, dtype=col.values.dtype)
    elif has_null:
        uniques = np.unique(present)
        codes = np.zeros(n, dtype=np.int64)
        if len(uniques):
            codes[valid] = np.searchsorted(uniques, present) + 1
    else:
        uniques, inverse = np.unique(col.values, return_inverse=True)
        codes = inverse.astype(np.int64) + 1
    # A full dictionary hands its codes out as group ids: no caller
    # may write them.
    codes.flags.writeable = False
    return EncodedColumn(codes, uniques, col.sql_type, full=True,
                         has_null=has_null)


def _encode_dense(values: np.ndarray
                  ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``(uniques, ranks)`` of non-empty integer ``values`` by
    counting -- ``np.unique``'s sorted uniques and each value's 1-based
    rank among them -- or None when their range is too sparse for the
    rows (:func:`counting_pass_fits`).  A bitmap of the values present,
    offset by the minimum; its running count is each value's rank."""
    low, high = int(values.min()), int(values.max())
    space = high - low + 1      # a Python int: no int64 overflow
    if not counting_pass_fits(space, len(values)):
        return None
    offsets = values - low
    seen = np.zeros(space, dtype=bool)
    seen[offsets] = True
    uniques = np.flatnonzero(seen) + low
    # The narrowest dtype that holds a rank keeps the one allocation
    # proportional to ``space`` small.
    rank = np.cumsum(seen, dtype=np.min_scalar_type(len(uniques)))
    return uniques.astype(values.dtype, copy=False), rank[offsets]


def in_code_order(keys: list[tuple[ColumnData, bool]]) -> bool:
    """Whether rows already stand in the order a stable sort on the
    keys' :func:`encode_column` codes would give them -- NULL lowest,
    a descending key (``ascending`` False) reversed -- so that sort
    would be the identity.

    One O(n) pass per key over adjacent row pairs, on the raw values
    and NULL masks (the filler under a NULL never decides a pair): a
    pair out of order answers False, and a "still tied" mask carries
    the pairs no key has told apart yet to the next key, which
    decides only those.  VARCHAR values compare as Python objects, so
    only the pairs a VARCHAR key decides are compared for order.  A
    REAL key holding a NaN answers False, leaving its order to the
    codes.
    """
    tied = None     # pair (i, i + 1) tied on every key so far
    for col, ascending in keys:
        values, nulls = col.values, col.nulls
        if len(values) < 2:
            return True
        has_nulls = bool(nulls.any())
        if values.dtype.kind == "f" and bool(
                (np.isnan(values) & ~nulls).any() if has_nulls
                else np.isnan(values).any()):
            return False
        a, b = values[:-1], values[1:]
        na, nb = nulls[:-1], nulls[1:]
        if not ascending:
            a, b, na, nb = b, a, nb, na
        # The pair is out of order when a > b, NULL lowest.
        eq = np.asarray(a == b, dtype=bool)
        if has_nulls:
            valid = ~(na | nb)
            eq &= valid
            eq |= na & nb
            null_last = ~na & nb
        if values.dtype == object:
            decided = ~eq if tied is None else tied & ~eq
            if has_nulls:
                if (decided & null_last).any():
                    return False
                decided &= valid
            at = np.flatnonzero(decided)
            if (a[at] > b[at]).any():
                return False
        else:
            gt = a > b
            if has_nulls:
                gt &= valid
                gt |= null_last
            if tied is not None:
                gt &= tied
            if gt.any():
                return False
        tied = eq if tied is None else tied & eq
        if not tied.any():
            return True
    return True


@dataclass
class Grouping:
    """The result of factorizing rows by a key-column list.

    A mixed-radix factorization leaves each group's combined code; its
    per-key codes are split out on the first read of :attr:`key_codes`
    (the pivot kernel, grouping-set derivation, :meth:`key_column`),
    which a plain GROUP BY, DISTINCT or window partition never makes.
    """

    group_ids: np.ndarray          # int64, one per input row
    n_groups: int
    #: (n_groups, n_keys) codes per group, or (n_groups,) combined
    #: mixed-radix codes until :attr:`key_codes` splits them.
    _codes: np.ndarray
    encodings: list[EncodedColumn]

    @property
    def key_codes(self) -> np.ndarray:
        """(n_groups, n_keys): each group's dictionary code per key."""
        if self._codes.ndim == 1:
            self._codes = split_codes(self._codes, self.encodings)
        return self._codes

    def key_column(self, position: int) -> ColumnData:
        """The representative values of key column ``position``, one row
        per group."""
        return self.encodings[position].decode(self.key_codes[:, position])

    def key_columns(self) -> list[ColumnData]:
        return [self.key_column(i) for i in range(len(self.encodings))]

    def first_rows(self) -> np.ndarray:
        """Index of the first row of each group, ordered by group id.

        The global group's is row 0.  A grouping by one full
        dictionary numbers its groups by code, so its first rows are
        the dictionary's, computed once per encoding
        (:meth:`EncodedColumn.first_rows`); any other grouping takes
        one :func:`first_positions` pass over its rows."""
        if not self.encodings:
            return np.zeros(1, dtype=np.int64)
        if len(self.encodings) == 1 and self.encodings[0].full:
            return self.encodings[0].first_rows()
        return first_positions(self.group_ids, self.n_groups)


#: Mixed-radix combination is used only while the combined code space
#: fits comfortably in int64.
_MAX_CODE_SPACE = 2 ** 62


def factorize(columns: list[ColumnData], n_rows: int,
              stats: Optional["StatsCollector"] = None) -> Grouping:
    """:func:`group_rows` as a query operator: crosses the
    ``group-by`` site first."""
    faults.cross("group-by")
    return group_rows(columns, n_rows, stats)


def group_rows(columns: list[ColumnData], n_rows: int,
               stats: Optional["StatsCollector"] = None) -> Grouping:
    """Group rows by the tuple of ``columns`` (possibly empty).

    With no key columns every row lands in one global group, which is
    exactly SQL's "aggregation without GROUP BY".  With ``stats``,
    base-table key columns reuse their memoized encodings
    (:func:`encode_column`).  Pure: no safepoint, no fault site -- view
    maintenance keys rows with it without adding ``group-by``
    crossings to the DML that triggered it.
    """
    if not columns:
        group_ids = np.zeros(n_rows, dtype=np.int64)
        return Grouping(group_ids, 1 if n_rows >= 0 else 0,
                        np.empty((1, 0), dtype=np.int64), [])
    return group_encoded([encode_column(c, stats) for c in columns])


def group_encoded(encodings: list[EncodedColumn]) -> Grouping:
    """:func:`group_rows` over key columns that are already dictionary
    codes (at least one).  The pivot kernel enters here: its group-id
    column is dense by construction and its cells' pivot columns are
    columns of ``key_codes``, so neither needs encoding again."""
    if len(encodings) == 1:
        return _factorize_single(encodings[0])

    code_space = 1
    for enc in encodings:
        code_space *= enc.cardinality
        if code_space > _MAX_CODE_SPACE:
            break
    if code_space <= _MAX_CODE_SPACE:
        return _factorize_radix(encodings, code_space)
    return _factorize_lex(encodings)


#: The density rule.  Ranking codes by counting costs O(rows + space)
#: time and ``space`` bytes of bitmap; ranking by sort costs
#: O(rows log rows) whatever the space.  Dictionary codes are dense by
#: construction, so the counting pass serves every grouping whose code
#: space is within a small multiple of its row count (the additive term
#: keeps small inputs from ever sorting); only a sparse space -- a
#: product of cardinalities far beyond the rows that can populate it --
#: is worth a sort.  Computed from the call's own arguments: there is
#: no knob, because no caller knows better than ``space`` and ``n``.
_DENSE_SPACE_PER_ROW = 4
_DENSE_SPACE_SLACK = 65_536


def counting_pass_fits(space: int, n_rows: int) -> bool:
    """Whether a code space of ``space`` slots is small enough, for
    ``n_rows`` rows, to be ranked by a bitmap instead of a sort."""
    return space <= _DENSE_SPACE_PER_ROW * n_rows + _DENSE_SPACE_SLACK


def _rank_codes(codes: np.ndarray,
                space: int) -> tuple[np.ndarray, np.ndarray]:
    """``(present, group_ids)``: the distinct values of ``codes`` in
    ascending order and each row's rank among them, both int64 --
    ``np.unique(codes, return_inverse=True)`` without the sort when
    ``codes`` (all in ``[0, space)``) are dense enough to count."""
    if not counting_pass_fits(space, len(codes)):
        present, group_ids = np.unique(codes, return_inverse=True)
        return present, group_ids.astype(np.int64)
    seen = np.zeros(space, dtype=bool)
    seen[codes] = True
    present = np.flatnonzero(seen)
    # The narrowest dtype that holds a group id keeps the lookup table
    # (the one allocation proportional to ``space``) small.
    lookup = np.empty(space, dtype=np.min_scalar_type(len(present)))
    lookup[present] = np.arange(len(present))
    return present, lookup[codes].astype(np.int64)


def _factorize_single(enc: EncodedColumn) -> Grouping:
    if enc.full:
        # Every code occurs, so the codes are their own ranking: code
        # 0 (NULL) is group 0 when some row is NULL, else group ids
        # start at code 1.
        start = 0 if enc.has_null else 1
        group_ids = enc.codes if start == 0 else enc.codes - 1
        key_codes = np.arange(start, enc.cardinality, dtype=np.int64)
        return Grouping(group_ids, enc.cardinality - start,
                        key_codes.reshape(-1, 1), [enc])
    present, group_ids = _rank_codes(enc.codes, enc.cardinality)
    return Grouping(group_ids, len(present), present.reshape(-1, 1),
                    [enc])


def _factorize_radix(encodings: list[EncodedColumn],
                     code_space: int) -> Grouping:
    """Combine per-column codes into one int64 with mixed radix."""
    combined = encodings[0].codes.astype(np.int64)   # a copy
    for enc in encodings[1:]:
        combined *= enc.cardinality
        combined += enc.codes
    present, group_ids = _rank_codes(combined, code_space)
    return Grouping(group_ids, len(present), present, encodings)


def split_codes(combined: np.ndarray,
                encodings: list[EncodedColumn]) -> np.ndarray:
    """Mixed-radix combined codes (the first encoding most
    significant) split into one column of codes per encoding."""
    key_codes = np.empty((len(combined), len(encodings)), dtype=np.int64)
    remaining = combined.copy()
    for position in range(len(encodings) - 1, -1, -1):
        radix = encodings[position].cardinality
        key_codes[:, position] = remaining % radix
        remaining //= radix
    return key_codes


def _factorize_lex(encodings: list[EncodedColumn]) -> Grouping:
    """Fallback for huge code spaces: unique over stacked code rows."""
    matrix = np.stack([enc.codes for enc in encodings], axis=1)
    present, group_ids = np.unique(matrix, axis=0, return_inverse=True)
    return Grouping(group_ids.astype(np.int64), len(present), present,
                    encodings)


def first_positions(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Index of the first row of each group, ordered by group id.

    Every group id in ``range(n_groups)`` must occur, except over an
    empty input, where the single global group has no representative
    row and gets position 0 (callers only use firsts with key columns,
    which are absent in that case).
    """
    n_rows = len(group_ids)
    firsts = np.full(n_groups, n_rows, dtype=np.int64)
    np.minimum.at(firsts, group_ids, np.arange(n_rows, dtype=np.int64))
    return firsts


def distinct_indices(columns: list[ColumnData], n_rows: int,
                     stats: Optional["StatsCollector"] = None
                     ) -> np.ndarray:
    """Positions of the first row of each distinct key combination, in
    first-appearance order (stable DISTINCT)."""
    grouping = factorize(columns, n_rows, stats)
    if n_rows == 0:
        return np.empty(0, dtype=np.int64)
    # Sorting the groups' first rows restores appearance order.
    return np.sort(grouping.first_rows())
