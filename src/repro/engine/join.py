"""Vectorized hash equi-joins (inner and left outer).

The join works in two phases, mirroring a classic hash join:

* :func:`prepare_side` digests the build side's key columns into a
  :class:`PreparedJoinSide`: per-column sorted dictionaries plus a
  CSR-style (sorted combined code -> row positions) structure.
* :func:`probe` encodes the probe side's keys against those
  dictionaries and emits matching row-index pairs.

Every join builds its side afresh: ``CREATE INDEX`` is a catalog
definition only (DESIGN.md section 2 says why the paper's index lever
is kept as SQL text and nothing more).

NULL join keys never match (SQL equality semantics) unless a key is
marked *null-safe*: the planner recognizes the generated pattern
``a = b OR (a IS NULL AND b IS NULL)`` and asks for NULL keys to join
as one ordinary value (Gray's data-cube semantics, where a NULL group
is a group like any other).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.engine import faults
from repro.engine.column import ColumnData
from repro.engine.groupby import encode_column
from repro.engine.stats import StatsCollector
from repro.engine.types import SQLType


@dataclass
class PreparedJoinSide:
    """Digested build-side keys, reusable across probes."""

    uniques: list[np.ndarray]      # per key column, sorted non-null uniques
    key_types: list[SQLType]
    gcodes: np.ndarray             # sorted unique combined codes
    row_order: np.ndarray          # build rows ordered by combined code
    offsets: np.ndarray            # CSR offsets into row_order
    n_rows: int                    # build-side row count
    null_safe: tuple[bool, ...] = ()   # per key column


def _encode_against(uniques: np.ndarray, col: ColumnData,
                    null_safe: bool = False) -> np.ndarray:
    """Codes of ``col`` values in ``uniques`` (1-based), -1 for values
    absent from the dictionary; NULLs get -1, or the joinable code 0
    when the key is null-safe."""
    values = col.values
    if col.sql_type == SQLType.VARCHAR:
        values = np.where(col.nulls, "", values)
    if len(uniques) == 0:
        codes = np.full(len(col), -1, dtype=np.int64)
    else:
        pos = np.searchsorted(uniques, values)
        pos_clipped = np.minimum(pos, len(uniques) - 1)
        hit = uniques[pos_clipped] == values
        codes = np.where(hit, pos_clipped + 1, -1).astype(np.int64)
    codes[col.nulls] = 0 if null_safe else -1
    return codes


def _null_safe_flags(null_safe: Optional[Sequence[bool]],
                     n: int) -> tuple[bool, ...]:
    if null_safe is None:
        return (False,) * n
    flags = tuple(bool(f) for f in null_safe)
    if len(flags) != n:
        raise ValueError("null_safe flags must match the key columns")
    return flags


def prepare_side(columns: list[ColumnData],
                 stats: Optional[StatsCollector] = None,
                 null_safe: Optional[Sequence[bool]] = None
                 ) -> PreparedJoinSide:
    """Digest build-side key columns (NULL-keyed rows are dropped,
    except on null-safe keys, where NULL joins as an ordinary value).

    Per-column dictionaries come from :func:`~repro.engine.groupby.
    encode_column` (whose ``uniques`` are exactly the sorted non-NULL
    distinct values), so base-table build keys reuse their memoized
    encodings instead of re-running ``np.unique``.
    """
    if not columns:
        raise ValueError("join requires at least one key column")
    faults.cross("join-build")
    flags = _null_safe_flags(null_safe, len(columns))
    n = len(columns[0])
    uniques_list: list[np.ndarray] = []
    codes_list: list[np.ndarray] = []
    for col, ns in zip(columns, flags):
        encoded = encode_column(col, stats)
        uniques_list.append(encoded.uniques)
        if ns:
            # NULL keeps its dictionary code 0 and matches probe NULLs.
            codes_list.append(encoded.codes.astype(np.int64, copy=False))
        else:
            # Join convention: NULL keys never match, so the NULL code 0
            # becomes the -1 "no match" sentinel.
            codes_list.append(np.where(encoded.codes == 0, np.int64(-1),
                                       encoded.codes))

    combined = np.zeros(n, dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    for uniques, codes, ns in zip(uniques_list, codes_list, flags):
        combined = combined * np.int64(len(uniques) + 1) + \
            np.maximum(codes, 0)
        valid &= codes >= 0 if ns else codes > 0
    rows = np.nonzero(valid)[0]
    comb_valid = combined[valid]
    order = np.argsort(comb_valid, kind="stable")
    sorted_codes = comb_valid[order]
    row_order = rows[order]
    boundaries = np.ones(len(sorted_codes), dtype=bool)
    boundaries[1:] = sorted_codes[1:] != sorted_codes[:-1]
    gcodes = sorted_codes[boundaries]
    starts = np.nonzero(boundaries)[0]
    offsets = np.concatenate([starts, [len(sorted_codes)]]).astype(np.int64)
    return PreparedJoinSide(uniques_list,
                            [c.sql_type for c in columns],
                            gcodes, row_order, offsets, n, flags)


def probe(prepared: PreparedJoinSide, columns: list[ColumnData],
          outer: bool) -> tuple[np.ndarray, np.ndarray]:
    """Match probe rows against a prepared build side.

    Returns ``(probe_indices, build_indices)``: parallel arrays of row
    positions.  For an outer (left) probe, unmatched probe rows appear
    once with ``build_index == -1``.
    """
    n = len(columns[0]) if columns else 0
    flags = prepared.null_safe or (False,) * len(columns)
    combined = np.zeros(n, dtype=np.int64)
    possible = np.ones(n, dtype=bool)
    for uniques, col, ns in zip(prepared.uniques, columns, flags):
        codes = _encode_against(uniques, col, null_safe=ns)
        combined = combined * np.int64(len(uniques) + 1) + \
            np.maximum(codes, 0)
        possible &= codes >= 0 if ns else codes > 0

    slot = np.searchsorted(prepared.gcodes, combined)
    in_range = slot < len(prepared.gcodes)
    slot_safe = np.minimum(slot, max(len(prepared.gcodes) - 1, 0))
    if len(prepared.gcodes):
        matched = possible & in_range & \
            (prepared.gcodes[slot_safe] == combined)
    else:
        matched = np.zeros(n, dtype=bool)

    counts = np.zeros(n, dtype=np.int64)
    starts = np.zeros(n, dtype=np.int64)
    if len(prepared.gcodes):
        counts[matched] = (prepared.offsets[slot_safe[matched] + 1]
                           - prepared.offsets[slot_safe[matched]])
        starts[matched] = prepared.offsets[slot_safe[matched]]

    out_counts = np.where(matched, counts, 1 if outer else 0)
    total = int(out_counts.sum())
    probe_idx = np.repeat(np.arange(n, dtype=np.int64), out_counts)
    if total == 0:
        return probe_idx, np.empty(0, dtype=np.int64)

    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    within = np.arange(total, dtype=np.int64) - \
        np.repeat(out_offsets[:-1], out_counts)
    flat_pos = np.repeat(starts, out_counts) + within
    flat_matched = np.repeat(matched, out_counts)
    build_idx = np.full(total, -1, dtype=np.int64)
    if prepared.row_order.size:
        safe = np.minimum(flat_pos, len(prepared.row_order) - 1)
        gathered = prepared.row_order[safe]
        build_idx[flat_matched] = gathered[flat_matched]
    return probe_idx, build_idx


def join_indices(left_columns: list[ColumnData],
                 right_columns: list[ColumnData],
                 outer: bool,
                 stats: Optional[StatsCollector] = None,
                 null_safe: Optional[Sequence[bool]] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Join row indices ``(left_idx, right_idx)`` for ``left JOIN
    right`` on positional key pairs; the right side builds."""
    return probe(prepare_side(right_columns, stats, null_safe),
                 left_columns, outer)
