"""Page format and column chunk serialization unit tests.

Every corruption mode the header detects must surface as a typed
:class:`PageCorruptError` *naming the page* -- the docs/storage.md
contract the torn-page and recovery tests build on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.column import ColumnData
from repro.engine.types import SQLType
from repro.errors import PageCorruptError, StorageError
from repro.storage.pages import (HEADER_SIZE, changed_rows,
                                 changed_slots, chunk_payload,
                                 decode_page, deserialize_column,
                                 encode_page, payload_capacity,
                                 serialize_column)

PAGE_SIZE = 256


def test_encode_decode_roundtrip():
    payload = b"hello columnar world"
    raw = encode_page(7, payload, PAGE_SIZE)
    assert len(raw) == PAGE_SIZE
    assert decode_page(7, raw, PAGE_SIZE) == payload


def test_empty_payload_roundtrips():
    raw = encode_page(0, b"", PAGE_SIZE)
    assert decode_page(0, raw, PAGE_SIZE) == b""


def test_payload_capacity_is_page_minus_header():
    assert payload_capacity(PAGE_SIZE) == PAGE_SIZE - HEADER_SIZE
    full = b"x" * payload_capacity(PAGE_SIZE)
    assert decode_page(3, encode_page(3, full, PAGE_SIZE),
                       PAGE_SIZE) == full


def test_overlong_payload_rejected():
    too_big = b"x" * (payload_capacity(PAGE_SIZE) + 1)
    with pytest.raises(StorageError, match="exceeds page capacity"):
        encode_page(1, too_big, PAGE_SIZE)


def test_short_read_is_torn_page():
    raw = encode_page(5, b"abc", PAGE_SIZE)
    with pytest.raises(PageCorruptError, match="page 5 is torn"):
        decode_page(5, raw[:-1], PAGE_SIZE)


def test_bad_magic_names_the_page():
    raw = bytearray(encode_page(9, b"abc", PAGE_SIZE))
    raw[:4] = b"XXXX"
    with pytest.raises(PageCorruptError, match="page 9 has bad magic"):
        decode_page(9, bytes(raw), PAGE_SIZE)


def test_wrong_page_id_detected():
    # A write that landed at the wrong offset: the header's id
    # disagrees with where the page was read from.
    raw = encode_page(4, b"abc", PAGE_SIZE)
    with pytest.raises(PageCorruptError,
                       match="page 11 header claims page id 4"):
        decode_page(11, raw, PAGE_SIZE)


def test_checksum_failure_detected():
    raw = bytearray(encode_page(2, b"abcdef", PAGE_SIZE))
    raw[HEADER_SIZE + 1] ^= 0xFF  # flip one payload byte
    with pytest.raises(PageCorruptError,
                       match="page 2 failed its checksum"):
        decode_page(2, bytes(raw), PAGE_SIZE)


def test_impossible_length_detected():
    raw = bytearray(encode_page(6, b"abc", PAGE_SIZE))
    # Payload-length field sits after magic (4) + page id (8).
    raw[12:16] = (PAGE_SIZE).to_bytes(4, "little")
    with pytest.raises(PageCorruptError, match="page 6 claims"):
        decode_page(6, bytes(raw), PAGE_SIZE)


# ----------------------------------------------------------------------
def test_chunk_payload_empty_still_owns_a_page():
    assert chunk_payload(b"", 10) == [b""]


def test_chunk_payload_splits_and_reassembles():
    data = bytes(range(256)) * 3
    chunks = chunk_payload(data, 100)
    assert all(len(c) <= 100 for c in chunks)
    assert b"".join(chunks) == data


# ----------------------------------------------------------------------
COLUMNS = [
    (SQLType.INTEGER, [1, -5, None, 2 ** 40, 0]),
    (SQLType.REAL, [1.5, None, -0.25, 1e12, 0.0]),
    (SQLType.VARCHAR, ["a", "", None, "héllo", "x" * 100]),
    (SQLType.BOOLEAN, [True, False, None, True, False]),
]


@pytest.mark.parametrize("sql_type,values", COLUMNS,
                         ids=[t.value for t, _ in COLUMNS])
def test_column_roundtrip(sql_type, values):
    data = ColumnData.from_values(sql_type, values)
    back = deserialize_column(serialize_column(data))
    assert back.sql_type == sql_type
    assert list(back.nulls) == [v is None for v in values]
    for i, value in enumerate(values):
        if value is None:
            continue
        if sql_type == SQLType.REAL:
            assert back.values[i] == pytest.approx(value)
        else:
            assert back.values[i] == value


@pytest.mark.parametrize("sql_type", [t for t, _ in COLUMNS],
                         ids=[t.value for t, _ in COLUMNS])
def test_empty_column_roundtrip(sql_type):
    back = deserialize_column(
        serialize_column(ColumnData.empty(sql_type)))
    assert back.sql_type == sql_type
    assert len(back) == 0


def test_null_fillers_are_normalized():
    # Two logically equal columns whose NULL slots hold different
    # garbage must serialize to identical bytes -- the bit-identity
    # the recovery comparisons and the differential fuzzer rely on.
    a = ColumnData(SQLType.INTEGER,
                   np.array([1, 999, 3], dtype=np.int64),
                   np.array([False, True, False]))
    b = ColumnData(SQLType.INTEGER,
                   np.array([1, -7, 3], dtype=np.int64),
                   np.array([False, True, False]))
    assert serialize_column(a) == serialize_column(b)


def test_unreadable_chunk_is_typed():
    with pytest.raises(StorageError, match="unreadable column chunk"):
        deserialize_column(b"\xff")


def test_values_sit_at_offsets_fixed_by_the_row():
    """An append leaves every byte of the earlier values in place."""
    short = serialize_column(ColumnData.from_values(SQLType.INTEGER,
                                                    [1, 2, 3]))
    longer = serialize_column(ColumnData.from_values(SQLType.INTEGER,
                                                     [1, 2, 3, 4]))
    assert longer[:24] == short[:24]


# ----------------------------------------------------------------------
VALUES = {
    SQLType.INTEGER: st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
    SQLType.REAL: st.floats(allow_nan=True, allow_infinity=True),
    # A small alphabet makes equal-length changes common; the
    # two-byte "é" makes a change of byte length with the same
    # number of characters.
    SQLType.VARCHAR: st.text(alphabet="abé", max_size=3),
    SQLType.BOOLEAN: st.booleans(),
}


@st.composite
def _versions(draw):
    """A column and its successor by an UPDATE, an append or a
    DELETE."""
    sql_type = draw(st.sampled_from(list(VALUES)))
    value = st.one_of(st.none(), VALUES[sql_type])
    old = draw(st.lists(value, min_size=1, max_size=40))
    new = list(old)
    edit = draw(st.sampled_from(["update", "append", "delete"]))
    if edit == "update":
        for _ in range(draw(st.integers(1, 3))):
            new[draw(st.integers(0, len(new) - 1))] = draw(value)
    elif edit == "append":
        new += draw(st.lists(value, min_size=1, max_size=10))
    else:
        start = draw(st.integers(0, len(new) - 1))
        del new[start:start + draw(st.integers(1, 5))]
    return (ColumnData.from_values(sql_type, old),
            ColumnData.from_values(sql_type, new))


@given(_versions(), st.integers(min_value=8, max_value=64))
@settings(max_examples=300, deadline=None)
def test_changed_slots_flag_every_slot_whose_bytes_change(versions,
                                                          capacity):
    old, new = versions
    old_raw, new_raw = serialize_column(old), serialize_column(new)
    dirty = changed_slots(old, new, changed_rows(old, new), new_raw,
                          capacity)
    assert len(dirty) == len(chunk_payload(new_raw, capacity))
    for slot in range(min(len(dirty), -(-len(old_raw) // capacity))):
        span = slice(slot * capacity, (slot + 1) * capacity)
        if old_raw[span] != new_raw[span]:
            assert dirty[slot], slot


def test_a_real_is_compared_bit_for_bit():
    old = ColumnData.from_values(SQLType.REAL, [0.0, 1.0])
    new = ColumnData.from_values(SQLType.REAL, [-0.0, 1.0])
    assert list(changed_rows(old, new)) == [0]


def test_changed_slots_flag_only_the_changed_rows_pages():
    old = ColumnData.from_values(SQLType.INTEGER, list(range(100)))
    new = ColumnData.from_values(SQLType.INTEGER,
                                 [-1 if i == 50 else i for i in range(100)])
    dirty = changed_slots(old, new, changed_rows(old, new),
                          serialize_column(new), 64)
    assert list(np.flatnonzero(dirty)) == [8 * 50 // 64]


def test_an_equal_length_varchar_change_keeps_the_heap_in_place():
    old = ColumnData.from_values(SQLType.VARCHAR, ["aa"] * 40)
    new = ColumnData.from_values(
        SQLType.VARCHAR, ["bb" if i == 30 else "aa" for i in range(40)])
    dirty = changed_slots(old, new, changed_rows(old, new),
                          serialize_column(new), 16)
    heap_offset = 4 * 40 + 2 * 30
    assert list(np.flatnonzero(dirty)) == [4 * 30 // 16,
                                           heap_offset // 16]
