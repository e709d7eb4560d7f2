"""The judge cache's segment layout, stated apart from the code that
writes it, for tests that read segments or plant them.

A segment is named <kind>-<hex>.bin. It is its kind's magic (LAYOUTS,
version 1 of both kinds), the record count and the crc32 of the entry
table (little-endian u32s), then the table, one entry per record (the
raw 32-byte sha256 key, the record's byte length and its crc32), then
the records back to back. An embedding record packs a little-endian
float32 row of d values: a raw DEFLATE stream of the row's d
sign/exponent bytes (byte 3 of each value), then its 3·d low bytes, in
value order. b"FLC\\x03" emb- segments, the layout before, held raw rows.
"""

import struct
import zlib
from pathlib import Path

LAYOUTS = {"cmp": b"FLC\x04", "emb": b"FLC\x04"}
HEAD = struct.Struct("<4sII")
ENTRY = struct.Struct("<32sII")


def kind_of(path):
    return Path(path).name.partition("-")[0]


def segment_bytes(records, magic):
    """A segment holding (key, record) pairs, in order, under magic."""
    table = b"".join(ENTRY.pack(k, len(r), zlib.crc32(r)) for k, r in records)
    return (
        HEAD.pack(magic, len(records), zlib.crc32(table))
        + table
        + b"".join(r for _, r in records)
    )


def table_size(data):
    """Bytes of data before its first record."""
    return HEAD.size + HEAD.unpack_from(data)[1] * ENTRY.size


def read_segment(path):
    """The (key, record) pairs of a whole segment, in order."""
    data = Path(path).read_bytes()
    magic, count, crc = HEAD.unpack_from(data)
    table = data[HEAD.size : table_size(data)]
    assert magic == LAYOUTS[kind_of(path)] and zlib.crc32(table) == crc
    records, offset = [], len(table) + HEAD.size
    for key, size, record_crc in ENTRY.iter_unpack(table):
        records.append((key, data[offset : offset + size]))
        assert zlib.crc32(records[-1][1]) == record_crc
        offset += size
    assert offset == len(data)
    return records


def segment_keys(path):
    return [key for key, _ in read_segment(path)]


def record_spans(data):
    """(start, end) of each record in a segment's bytes."""
    spans, offset = [], table_size(data)
    for _, size, _ in ENTRY.iter_unpack(data[HEAD.size : offset]):
        spans.append((offset, offset + size))
        offset += size
    return spans
