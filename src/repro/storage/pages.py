"""The on-disk page format and the columnar chunk serialization.

A *page* is the unit of disk I/O: a fixed-size block holding a header
(magic, page id, payload length, CRC-32 of the payload) followed by the
payload bytes and zero padding.  The header makes every read
self-verifying -- a torn write, a bit flip or a page written to the
wrong offset surfaces as a typed :class:`~repro.errors.PageCorruptError`
naming the page, never as silently wrong data.

A *column chunk* is what pages carry: one
:class:`~repro.engine.column.ColumnData` serialized to a flat byte
string (the values in a fixed little-endian layout, the packed null
bitmap, then a type code and row count).  Chunks larger than one
page's payload capacity are split across a run of page slots by
:func:`chunk_payload` and reassembled on read.

The layout is deliberately columnar: each column's bytes live on
their own run of pages, so a query touching three columns fetches only
those columns' pages.  It is also position-stable -- row *i*'s bytes
sit at an offset fixed by *i* -- so:

* a column read whole is one join of its run plus one parse
  (:func:`deserialize_column`);
* a gather of some rows fetches only the slots that hold them
  (:func:`gather_rows`): the slot of a fixed-width value, a BOOLEAN
  bit or a null bit is arithmetic on the row number, and a VARCHAR's
  heap range is placed by its lengths, read first;
* an append leaves every slot before the end of the values
  byte-identical and rewrites the rest from the old chunk's tail
  alone (:func:`append_start`, :func:`appended_chunk`);
* any other new version of a column changes only the slots
  :func:`changed_slots` names and shares the rest of its
  predecessor's pages.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.engine.column import ColumnData
from repro.engine.types import SQLType
from repro.errors import PageCorruptError, StorageError

#: Default page size in bytes.  Small enough that modest tables span
#: many pages (exercising the buffer pool), large enough to amortize
#: the 20-byte header.
DEFAULT_PAGE_SIZE = 4096

PAGE_MAGIC = b"RPPG"

#: Page header: magic, page id, payload length, CRC-32 of the payload.
_HEADER = struct.Struct("<4sQII")
HEADER_SIZE = _HEADER.size


def payload_capacity(page_size: int) -> int:
    """Payload bytes one page can carry."""
    return page_size - HEADER_SIZE


def encode_page(page_id: int, payload: bytes, page_size: int) -> bytes:
    """A full page image: header + payload + zero padding."""
    cap = payload_capacity(page_size)
    if len(payload) > cap:
        raise StorageError(
            f"payload of {len(payload)} bytes exceeds page capacity "
            f"{cap}")
    header = _HEADER.pack(PAGE_MAGIC, page_id, len(payload),
                          zlib.crc32(payload))
    return header + payload + b"\x00" * (cap - len(payload))


def decode_page(page_id: int, raw: bytes, page_size: int) -> bytes:
    """Verify and strip one page image, returning the payload.

    Raises :class:`PageCorruptError` naming ``page_id`` on any
    mismatch: short read, bad magic, wrong page id (a write landed at
    the wrong offset), an impossible payload length, or a CRC failure
    (torn write / bit rot).
    """
    if len(raw) < page_size:
        raise PageCorruptError(
            f"page {page_id} is torn: read {len(raw)} of "
            f"{page_size} bytes")
    magic, stored_id, length, crc = _HEADER.unpack_from(raw)
    if magic != PAGE_MAGIC:
        raise PageCorruptError(
            f"page {page_id} has bad magic {magic!r}")
    if stored_id != page_id:
        raise PageCorruptError(
            f"page {page_id} header claims page id {stored_id}")
    if length > payload_capacity(page_size):
        raise PageCorruptError(
            f"page {page_id} claims {length} payload bytes; capacity "
            f"is {payload_capacity(page_size)}")
    payload = raw[HEADER_SIZE:HEADER_SIZE + length]
    if zlib.crc32(payload) != crc:
        raise PageCorruptError(
            f"page {page_id} failed its checksum (torn write or "
            f"corruption)")
    return payload


def chunk_payload(data: bytes, capacity: int) -> list[bytes]:
    """Split ``data`` into page-sized chunks (always at least one, so
    an empty column still owns a page and round-trips)."""
    if not data:
        return [b""]
    return [data[i:i + capacity] for i in range(0, len(data), capacity)]


# ----------------------------------------------------------------------
# Column chunk serialization
# ----------------------------------------------------------------------
_TYPE_CODES = {
    SQLType.INTEGER: 1,
    SQLType.REAL: 2,
    SQLType.VARCHAR: 3,
    SQLType.BOOLEAN: 4,
}
_CODE_TYPES = {code: sql_type for sql_type, code in _TYPE_CODES.items()}

#: The chunk trailer: type code, row count.
_TRAILER = struct.Struct("<BQ")

#: The little-endian layout of the fixed-width types' values.
_VALUE_DTYPES = {SQLType.INTEGER: "<i8", SQLType.REAL: "<f8"}

#: Bytes per row at the head of a chunk: the value of a fixed-width
#: type, the length of a VARCHAR (BOOLEAN values are packed bits).
_ROW_WIDTHS = {SQLType.INTEGER: 8, SQLType.REAL: 8, SQLType.VARCHAR: 4}


def serialize_column(data: ColumnData) -> bytes:
    """One column as a flat byte string, laid out so that row *i*'s
    bytes sit at an offset fixed by *i*: the values (little-endian
    int64 / float64, packed bits for BOOLEAN; for VARCHAR the uint32
    byte lengths, then the UTF-8 heap), then the packed null bitmap,
    then the type code and row count.  An append therefore leaves
    every earlier values page byte-identical.

    NULL positions are normalized to the type's zero filler before
    encoding, so serialization is a pure function of the column's
    *logical* content -- two columns that compare equal row-by-row
    produce identical bytes (the bit-identity the recovery tests and
    the differential fuzzer rely on).
    """
    n = len(data)
    nulls = np.asarray(data.nulls, dtype=bool)
    # Buffers, not copies, wherever the column already holds the
    # bytes: each needless copy of a whole column costs more than the
    # join that follows.
    values = data.values
    if data.sql_type in _VALUE_DTYPES:
        if nulls.any():
            values = np.where(nulls, 0, values)
        parts = [np.ascontiguousarray(
            values, dtype=_VALUE_DTYPES[data.sql_type]).data]
    elif data.sql_type == SQLType.BOOLEAN:
        if nulls.any():
            values = np.where(nulls, False, values)
        parts = [np.packbits(np.asarray(values, dtype=bool)).data]
    else:  # VARCHAR
        encoded = [b"" if nulls[i] else str(values[i]).encode()
                   for i in range(n)]
        lengths = np.fromiter((len(e) for e in encoded), dtype="<u4",
                              count=n)
        parts = [lengths.data, b"".join(encoded)]
    parts.append(np.packbits(nulls).data)
    parts.append(_TRAILER.pack(_TYPE_CODES[data.sql_type], n))
    return b"".join(parts)


def deserialize_column(raw) -> ColumnData:
    """Invert :func:`serialize_column`.  INTEGER and REAL values are
    read in place: over a writable buffer (the bytearray
    :meth:`~repro.storage.engine.StorageEngine.read_column` joins)
    they are not copied again."""
    try:
        code, n = _TRAILER.unpack_from(
            raw, max(len(raw) - _TRAILER.size, 0))
        sql_type = _CODE_TYPES[code]
    except (struct.error, KeyError) as exc:
        raise StorageError(f"unreadable column chunk: {exc}") from None
    bitmap_bytes = (n + 7) // 8
    end = len(raw) - _TRAILER.size - bitmap_bytes
    width = _ROW_WIDTHS.get(sql_type)
    expected = bitmap_bytes if width is None else width * n
    if sql_type == SQLType.VARCHAR and 0 <= expected <= end:
        lengths = np.frombuffer(raw, dtype="<u4", count=n)
        expected += int(lengths.sum())
    if end != expected:
        raise StorageError(
            f"column chunk truncated: {n} rows need {expected} value "
            f"bytes, the chunk holds {max(end, 0)}")
    nulls = _unpack_bits(raw, end, n)
    if sql_type in _VALUE_DTYPES:
        native = sql_type.numpy_dtype
        values = np.frombuffer(raw, dtype=_VALUE_DTYPES[sql_type],
                               count=n).astype(native, copy=False)
        if not values.flags.writeable:
            values = values.copy()
    elif sql_type == SQLType.BOOLEAN:
        values = _unpack_bits(raw, 0, n)
    else:  # VARCHAR
        offset = 4 * n
        values = np.empty(n, dtype=object)
        for i in range(n):
            size = int(lengths[i])
            values[i] = raw[offset:offset + size].decode()
            offset += size
    return ColumnData(sql_type, values, nulls)


def _unpack_bits(raw, offset: int, n: int) -> np.ndarray:
    """The ``n`` bits packed at byte ``offset`` of ``raw``."""
    packed = np.frombuffer(raw, dtype=np.uint8, count=(n + 7) // 8,
                           offset=offset)
    return np.unpackbits(packed, count=n).view(bool)


# ----------------------------------------------------------------------
# What a new version changes
# ----------------------------------------------------------------------
def changed_rows(old: ColumnData, new: ColumnData) -> np.ndarray:
    """The rows below both columns' lengths whose bytes can differ
    between their chunks, ascending: a row whose NULL flag differs, or
    whose non-NULL value does (REAL compared bit for bit, so ``-0.0``
    and ``0.0`` differ).  The columns must have the same type."""
    m = min(len(old), len(new))
    old_values, new_values = old.values[:m], new.values[:m]
    if new.sql_type == SQLType.REAL:
        old_values = np.asarray(old_values, dtype=np.float64).view(
            np.uint64)
        new_values = np.asarray(new_values, dtype=np.float64).view(
            np.uint64)
    differ = old_values != new_values
    old_nulls = np.asarray(old.nulls[:m], dtype=bool)
    new_nulls = np.asarray(new.nulls[:m], dtype=bool)
    if old_nulls.any() or new_nulls.any():
        differ &= ~new_nulls
        differ |= old_nulls != new_nulls
    return np.flatnonzero(differ)


def changed_slots(old: ColumnData, new: ColumnData, rows: np.ndarray,
                  raw: bytes, capacity: int) -> np.ndarray:
    """For each page slot of ``raw`` (``new``'s chunk, split every
    ``capacity`` bytes), whether its bytes can differ from the same
    slot of ``old``'s chunk; ``rows`` is :func:`changed_rows` of the
    two.  The test may flag a slot whose bytes are equal, never pass
    one whose bytes changed: every byte whose offset moves -- past the
    end of the shorter values region when the row count changes, past
    the first VARCHAR whose length changes -- is flagged with the rest
    of the chunk, since the bitmap and trailer move with it."""
    n, m = len(new), min(len(old), len(new))
    width = _ROW_WIDTHS.get(new.sql_type)
    dirty = np.zeros(-(-len(raw) // capacity), dtype=bool)
    # Past the end of the shorter version's rows every byte moves.
    moved_from = None if len(old) == n \
        else (m // 8 if width is None else m * width)
    if len(rows):
        if width is None:   # BOOLEAN: row i is a bit of byte i // 8
            starts = rows // 8
            stops = starts + 1
        else:
            starts = rows * width
            stops = starts + width
        spans = [(starts, stops)]
        if len(old) == n:
            flipped = rows[old.nulls[rows] != new.nulls[rows]]
            bitmap = len(raw) - _TRAILER.size - (n + 7) // 8 \
                + flipped // 8
            spans.append((bitmap, bitmap + 1))
            if new.sql_type == SQLType.VARCHAR:
                moved_from = _heap_spans(old, new, rows, raw, spans)
        dirty |= _touched(np.concatenate([s for s, _ in spans]),
                          np.concatenate([e for _, e in spans]),
                          capacity, len(dirty))
    if moved_from is not None:
        dirty[moved_from // capacity:] = True
    return dirty


def _heap_spans(old: ColumnData, new: ColumnData, rows: np.ndarray,
                raw: bytes, spans: list) -> int | None:
    """Add the heap bytes of VARCHAR ``rows`` (same row count) to
    ``spans``; return the heap offset of the first row whose byte
    length changed -- every heap byte after it moves -- or None."""
    n = len(new)
    lengths = np.frombuffer(raw, dtype="<u4", count=n)
    heap = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=heap[1:])
    heap += 4 * n
    spans.append((heap[rows], heap[rows + 1]))
    old_lengths = np.fromiter(
        (0 if old.nulls[i] else len(str(old.values[i]).encode())
         for i in rows), dtype=np.int64, count=len(rows))
    resized = rows[old_lengths != lengths[rows]]
    return int(heap[resized[0]]) if len(resized) else None


def _touched(starts: np.ndarray, stops: np.ndarray, capacity: int,
             n_slots: int) -> np.ndarray:
    """For each of ``n_slots`` page slots, whether a byte span
    ``[starts[i], stops[i])`` lies on it (an empty span lies on
    none)."""
    touched = stops > starts
    # +1 where a span's first slot begins, -1 past its last one.
    marks = np.bincount(starts[touched] // capacity,
                        minlength=n_slots + 1) \
        - np.bincount((stops[touched] - 1) // capacity + 1,
                      minlength=n_slots + 1)
    return np.cumsum(marks[:n_slots]) > 0


# ----------------------------------------------------------------------
# Some rows of a chunk; a chunk with rows appended
# ----------------------------------------------------------------------
def gather_rows(sql_type: SQLType, n: int, rows: np.ndarray,
                capacity: int, n_slots: int, fetch
                ) -> tuple[ColumnData | None, bytearray | None]:
    """Rows ``rows`` (positions, in any order) of the ``n``-row chunk
    of ``sql_type`` on ``n_slots`` page slots, fetching through
    ``fetch(slots) -> payloads`` only the slots that hold their bytes:
    each row's value (BOOLEAN: bit) and null bit; for VARCHAR, every
    lengths slot first, which places the heap ranges.  Returns
    ``(column, None)``, or ``(None, chunk)`` when that was every slot:
    the whole chunk, for the caller to read as a column."""
    if not len(rows):
        return ColumnData.empty(sql_type), None
    held: dict[int, bytes] = {}

    def load(slots) -> None:
        missing = [int(slot) for slot in slots if slot not in held]
        if missing:
            held.update(zip(missing, fetch(missing)))

    rows = np.asarray(rows, dtype=np.int64)
    width = _ROW_WIDTHS.get(sql_type)
    if sql_type == SQLType.VARCHAR:
        load(range(-(-4 * n // capacity)))
        lengths = np.frombuffer(b"".join(held[s] for s in sorted(held)),
                                dtype="<u4", count=n)
        heap = np.full(n + 1, 4 * n, dtype=np.int64)
        heap[1:] += np.cumsum(lengths, dtype=np.int64)
        starts, stops, bitmap = heap[rows], heap[rows + 1], int(heap[n])
    elif width is None:   # BOOLEAN: row i is a bit of byte i // 8
        starts = rows // 8
        stops, bitmap = starts + 1, (n + 7) // 8
    else:
        starts = rows * width
        stops, bitmap = starts + width, n * width
    bits = bitmap + rows // 8
    load(np.flatnonzero(_touched(np.concatenate([starts, bits]),
                                 np.concatenate([stops, bits + 1]),
                                 capacity, n_slots)))
    if len(held) == n_slots:
        return None, bytearray().join(held[s] for s in range(n_slots))
    # The held slots end to end: every payload but a chunk's last one
    # is ``capacity`` bytes, so a span across two adjacent slots is
    # contiguous here too.
    slots = sorted(held)
    base = np.zeros(n_slots, dtype=np.int64)
    base[slots] = np.arange(len(slots), dtype=np.int64) * capacity
    buffer = bytearray().join(held[s] for s in slots)
    data = np.frombuffer(buffer, dtype=np.uint8)

    def at(offsets: np.ndarray) -> np.ndarray:
        return base[offsets // capacity] + offsets % capacity

    shift = 7 - rows % 8
    nulls = ((data[at(bits)] >> shift) & 1).astype(bool)
    if sql_type in _VALUE_DTYPES:
        picked = data[at(starts)[:, None] + np.arange(width)]
        values = picked.view(_VALUE_DTYPES[sql_type]).reshape(-1) \
            .astype(sql_type.numpy_dtype, copy=False)
    elif width is None:
        values = ((data[at(starts)] >> shift) & 1).astype(bool)
    else:
        values = np.empty(len(rows), dtype=object)
        for i, (start, size) in enumerate(zip(
                at(starts).tolist(), (stops - starts).tolist())):
            values[i] = buffer[start:start + size].decode()
    return ColumnData(sql_type, values, nulls), None


def append_start(sql_type: SQLType, n: int, capacity: int) -> int:
    """The first page slot an append to an ``n``-row chunk rewrites:
    the one holding the end of the values (VARCHAR: of the lengths).
    Every byte from there on changes or moves; every slot before it
    stays byte-identical."""
    width = _ROW_WIDTHS.get(sql_type)
    return (n // 8 if width is None else n * width) // capacity


def appended_chunk(sql_type: SQLType, n: int, start: int,
                   suffix, tail: ColumnData) -> bytes:
    """The bytes from offset ``start`` on of the chunk of an ``n``-row
    column with ``tail``'s rows appended -- :func:`serialize_column` of
    the whole new column, cut at ``start`` -- made from ``suffix``, the
    old chunk's bytes from ``start`` on (``start`` no later than the
    end of its values, VARCHAR lengths), and ``tail`` alone."""
    t = len(tail)
    raw = serialize_column(tail)
    width = _ROW_WIDTHS.get(sql_type)
    if width is None:   # BOOLEAN: re-pack the bits from byte ``start``
        bitmap = (n + 7) // 8 - start
        parts = [np.packbits(np.concatenate([
            _unpack_bits(suffix, 0, n - 8 * start),
            _unpack_bits(raw, 0, t)])).data]
    else:
        bitmap = n * width - start
        parts = [suffix[:bitmap], raw[:t * width]]
        if sql_type == SQLType.VARCHAR:
            old_heap = len(suffix) - bitmap - (n + 7) // 8 \
                - _TRAILER.size
            parts += [suffix[bitmap:bitmap + old_heap],
                      raw[4 * t:len(raw) - (t + 7) // 8 - _TRAILER.size]]
            bitmap += old_heap
    nulls = np.concatenate([_unpack_bits(suffix, bitmap, n),
                            np.asarray(tail.nulls, dtype=bool)])
    parts += [np.packbits(nulls).data,
              _TRAILER.pack(_TYPE_CODES[sql_type], n + t)]
    return b"".join(parts)
