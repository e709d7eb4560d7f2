"""The judge cache's on-disk layout: segment files, their index, and the
record coding of each kind.

A cache directory holds content-addressed segments,
<kind>-<sha256 of their raw keys>.bin. A segment is its kind's magic
(LAYOUTS), the record count and the crc32 of the entry table, then the
table (each raw sha256 key, with its record's byte length and crc32),
then the records back to back. Only the tables are kept in memory;
records are read from disk, and checked, on each hit.

Standard library only: numpy is imported by unpack_rows alone, so
commands that never embed start without it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .core import atomic_write, canonical_json

if TYPE_CHECKING:
    import numpy as np

# The cache's warnings are the judge's, so they go to the judge's logger.
logger = logging.getLogger("feedbacklab.judge")

T = TypeVar("T")

_HEAD = struct.Struct("<4sII")
_ENTRY = struct.Struct("<32sII")

# Where a cached record is: (segment, byte offset, byte length, crc32).
Entry = tuple[Path, int, int, int]

# -- cmp: judge replies --------------------------------------------------
# A record is one zlib stream at ZLIB_LEVEL of the reply's usage as a
# canonical-JSON line, then the reply's UTF-8 bytes. It is compressed
# against its own prompt as a preset dictionary (RFC 1950's FDICT), since
# a reply repeats its prompt's keys, labels and quoted spans. On 1.1 MB of
# thread_parse replies, level 1 wrote 5% more bytes than level 6 in two
# thirds of its time. The dictionary's Adler-32 in the stream's header
# turns a record read under another prompt into a miss.
ZLIB_LEVEL = 1


def encode_reply(raw: str, usage: Mapping[str, Any], prompt: bytes) -> bytes:
    codec = zlib.compressobj(ZLIB_LEVEL, zdict=prompt)
    data = canonical_json(usage).encode() + b"\n" + raw.encode("utf-8")
    return codec.compress(data) + codec.flush()


def decode_replies(
    prompt: bytes, records: Sequence[bytes]
) -> list[tuple[str, Any] | None]:
    """encode_reply reversed: (reply, usage) per record, or None unless
    the record is one whole stream compressed against prompt."""
    replies: list[tuple[str, Any] | None] = []
    for record in records:
        codec = zlib.decompressobj(zdict=prompt)
        try:
            usage, _, raw = codec.decompress(record).partition(b"\n")
            whole = codec.eof and not codec.unused_data
            replies.append((raw.decode("utf-8"), json.loads(usage)) if whole else None)
        except (zlib.error, ValueError):
            replies.append(None)
    return replies


# -- emb: embedding rows -------------------------------------------------
# Rows are little-endian float32 (ROW_DTYPE), the precision embedding
# endpoints serve. A row's record is the byte of each value that holds
# its sign and exponent (byte 3), as a raw Huffman-only DEFLATE stream
# (RFC 1951), then the other three bytes of each value, in value order,
# as they are. Embeddings use few exponents, so the coded plane takes
# about 0.4 of its bytes, while the low bytes would not shrink.
ROW_DTYPE = "<f4"


def pack_row(row: bytes) -> bytes:
    """The record of a ROW_DTYPE row's bytes. Z_HUFFMAN_ONLY matches no
    strings, so a 9-bit window is enough, and memLevel 6 still codes a
    plane of up to 4,094 values as one block, the same bytes as the
    default 8. Both keep the coder's set-up small: it costs more than
    coding a plane."""
    codec = zlib.compressobj(1, zlib.DEFLATED, -9, 6, zlib.Z_HUFFMAN_ONLY)
    lows = bytearray(row)
    del lows[3::4]
    return codec.compress(row[3::4]) + codec.flush() + lows


def unpack_rows(records: Sequence[bytes]) -> list[np.ndarray | None]:
    """pack_row reversed, as ROW_DTYPE views of one array that a single
    pass puts together. A record is None unless its stream ends and
    exactly three low bytes per byte the stream decodes to follow it."""
    import numpy as np

    planes: list[bytes] = []
    lows: list[bytes] = []
    sizes: list[int | None] = []
    for record in records:
        codec = zlib.decompressobj(-9)
        try:
            plane = codec.decompress(record)
        except zlib.error:
            plane = None
        if plane is not None and codec.eof and len(codec.unused_data) == 3 * len(plane):
            planes.append(plane)
            lows.append(codec.unused_data)
            sizes.append(len(plane))
        else:
            sizes.append(None)
    values = np.empty(sum(map(len, planes)), [("low", "V3"), ("high", "u1")])
    values["high"] = np.frombuffer(b"".join(planes), np.uint8)
    values["low"] = np.frombuffer(b"".join(lows), "V3")
    flat = values.view(ROW_DTYPE)
    ends = itertools.accumulate(size or 0 for size in sizes)
    return [None if n is None else flat[end - n : end] for n, end in zip(sizes, ends)]


# Each kind's layout version: the magic its segments start with, looked up
# by the kind in the file's name. A change to a kind's table or record
# coding takes a new magic for that kind alone. Its older segments then
# fail the magic and are deleted at the first lookup, so only its keys
# miss. A file whose name gives no kind here is unreadable too.
LAYOUTS = {
    "cmp": b"FLC\x04",  # version 1: encode_reply records
    "emb": b"FLC\x04",  # version 1: pack_row records
}


def _located(
    path: Path, offset: int, entries: Iterable[tuple[bytes, int, int]]
) -> Iterable[tuple[bytes, Entry]]:
    """(key, entry) per table entry of the segment at path whose first
    record starts at offset."""
    for key, size, crc in entries:
        yield key, (path, offset, size, crc)
        offset += size


def _table(path: Path) -> list[tuple[bytes, Entry]] | None:
    """A segment's (key, entry) pairs, or None if its table fails its
    kind's magic, its crc32 or the file's size."""
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        size = os.fstat(fh.fileno()).st_size
        if len(head) < _HEAD.size:
            return None
        magic, count, crc = _HEAD.unpack(head)
        offset = _HEAD.size + count * _ENTRY.size
        if magic != LAYOUTS.get(path.name.partition("-")[0]) or offset > size:
            return None
        table = fh.read(offset - _HEAD.size)
    entries = list(_ENTRY.iter_unpack(table))
    if zlib.crc32(table) != crc or size != offset + sum(n for _, n, _ in entries):
        return None
    return list(_located(path, offset, entries))


def scan(directory: Path) -> tuple[dict[bytes, Entry], list[Path]]:
    """Read the table of every .bin file in directory, changing nothing:
    the key -> entry index of the readable segments, and the unreadable
    files, in name order. A key in two segments keeps the later name's."""
    index: dict[bytes, Entry] = {}
    unreadable: list[Path] = []
    for path in sorted(directory.glob("*.bin")):
        entries = _table(path)
        if entries is None:
            unreadable.append(path)
        else:
            index.update(entries)
    return index, unreadable


class Store:
    """The segments of one cache directory, indexed by key. A store
    without a directory indexes nothing and writes nothing."""

    def __init__(self, directory: str | Path | None):
        self.directory = Path(directory) if directory else None
        if self.directory:
            self.directory.mkdir(parents=True, exist_ok=True)
        # Guards writes and the index.
        self._lock = threading.Lock()
        # Key -> entry, built from the tables by the first lookup.
        self._index: dict[bytes, Entry] | None = None if self.directory else {}

    def _entries(self) -> dict[bytes, Entry]:
        """The index; hold self._lock."""
        if self._index is None:
            self._index, unreadable = scan(self.directory)
            # An unreadable segment (a torn file, or an older layout of its
            # kind) is a miss for all its keys, and is deleted: a rewrite
            # replaces it only if the same keys miss together, and never an
            # older layout's file, whose name hashed hex keys. atomic_write
            # never leaves a partial segment under its final name, so none
            # is deleted mid-write.
            for path in unreadable:
                path.unlink(missing_ok=True)
            if unreadable:
                # One warning, which names the first few.
                named = [f"unreadable entry {p.name}" for p in unreadable[:5]]
                if len(unreadable) > len(named):
                    named.append(f"and {len(unreadable) - len(named)} more")
                logger.warning(
                    "judge cache: %d unreadable segment(s) deleted, treated "
                    "as misses: %s",
                    len(unreadable),
                    ", ".join(named),
                )
        return self._index

    def read(
        self,
        keys: Iterable[bytes],
        decode: Callable[[list[bytes]], Sequence[T | None]],
    ) -> dict[bytes, T]:
        """The cached records of keys, by key, with one read and one decode
        call per segment touched. A segment that is gone, or holds a
        record that fails its crc32 or decodes to None, is torn, and its
        keys are left out."""
        with self._lock:
            index = self._entries()
            found = {key: index[key] for key in keys if key in index}
        by_segment: dict[Path, list[tuple[bytes, Entry]]] = {}
        for key, entry in found.items():
            by_segment.setdefault(entry[0], []).append((key, entry))
        out: dict[bytes, T] = {}
        for path, entries in by_segment.items():
            start = min(offset for _, (_, offset, _, _) in entries)
            end = max(offset + size for _, (_, offset, size, _) in entries)
            try:
                with open(path, "rb") as fh:
                    fh.seek(start)
                    data = fh.read(end - start)
            except FileNotFoundError:
                data = b""
            got = {
                key: data[offset - start : offset - start + size]
                for key, (_, offset, size, _) in entries
            }
            whole = all(
                len(got[key]) == size and zlib.crc32(got[key]) == crc
                for key, (_, _, size, crc) in entries
            )
            values = decode(list(got.values())) if whole else [None]
            if any(value is None for value in values):
                self._tear(*entries[0])
            else:
                out.update(zip(got, values))
        return out

    def _tear(self, key: bytes, found: Entry) -> None:
        """Drop the segment that holds key: all its keys leave the index
        and miss, and the file is deleted, so it cannot shadow the
        segments the fresh records go to. A read that raced such a tear
        finds its key gone or moved, and only misses."""
        with self._lock:
            index = self._entries()
            if index.get(key) == found:
                path = found[0]
                for torn in [k for k, entry in index.items() if entry[0] == path]:
                    del index[torn]
                path.unlink(missing_ok=True)
                logger.warning(
                    "judge cache: unreadable entry %s, treated as a miss", path.name
                )

    def write(self, kind: str, records: Sequence[tuple[bytes, bytes]]) -> None:
        """Write (key, record) pairs as one segment of kind and index them."""
        if not self.directory:
            return
        entries = [(key, len(record), zlib.crc32(record)) for key, record in records]
        table = b"".join(_ENTRY.pack(*entry) for entry in entries)
        head = _HEAD.pack(LAYOUTS[kind], len(entries), zlib.crc32(table))
        name = hashlib.sha256(b"".join(key for key, _ in records)).hexdigest()
        path = self.directory / f"{kind}-{name}.bin"
        with self._lock:
            with atomic_write(path, "wb") as fh:
                fh.write(head + table)
                fh.writelines(record for _, record in records)
            self._entries().update(_located(path, _HEAD.size + len(table), entries))
