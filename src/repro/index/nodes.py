"""R-tree node formats and their binary codecs.

Two node families share one layout scheme:

* **object nodes** (the data-object R-tree of Section 4.1): leaf entries
  are bare points, internal entries are child MBRs;
* **feature nodes** (SRT-index and modified IR²-tree): leaf entries carry
  the feature's quality score and exact keyword bit mask, internal entries
  additionally carry the two per-node aggregates the paper requires —
  the max descendant score ``e.s`` and a keyword summary ``e.W`` (exact
  union mask for SRT, superimposed signature for IR²).

Payload layout: ``[level:u8][count:u16]`` followed by ``count``
fixed-size entries, so node fan-out is *derived from the page size* —
growing the vocabulary grows the per-entry summary and shrinks fan-out,
reproducing the effect the paper discusses for Figure 7(d).

Internal nodes store their entries as rows.  A **leaf** stores them as
columns, each ``count`` items long and back to back after the header::

    id  <i8 | x  <f8 | y  <f8 [| score  <f8 | mask  count × mask_bytes u8]

(the bracketed columns exist in feature leaves only), so the arrays a
query scores against are :func:`leaf_columns` views over the payload
itself and decoding a leaf is a size check.  Entry objects are built
from the columns only for callers that ask for :attr:`Node.entries`.
The 3-byte header leaves the 8-byte columns unaligned; numpy reads such
views correctly, and padding the header would move fan-outs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.errors import IndexError_, StorageError
from repro.geometry.rect import Rect

_HEADER = struct.Struct("<BH")
_OBJ_INTERNAL = struct.Struct("<q4d")
_FEAT_INTERNAL_FIXED = struct.Struct("<q5d")
_LEAF_DTYPES = ("<i8", "<f8", "<f8", "<f8")  # id, x, y, score columns

LEAF_LEVEL = 0
#: Leaf byte layout recorded on a tree's meta page: 1 was one row per
#: entry, 2 is the columnar layout above.  There is no reader for 1.
LEAF_LAYOUT = 2


@dataclass(frozen=True, slots=True)
class ObjectLeafEntry:
    """A data object stored in a leaf: id plus location."""

    oid: int
    x: float
    y: float

    @property
    def location(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def rect(self) -> Rect:
        return Rect((self.x, self.y), (self.x, self.y))


@dataclass(frozen=True, slots=True)
class ObjectInternalEntry:
    """A child pointer with its MBR."""

    child: int
    rect: Rect


@dataclass(frozen=True, slots=True)
class FeatureLeafEntry:
    """A feature object in a leaf: id, location, score, keyword mask."""

    fid: int
    x: float
    y: float
    score: float
    mask: int

    @property
    def location(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def rect(self) -> Rect:
        return Rect((self.x, self.y), (self.x, self.y))


@dataclass(frozen=True, slots=True)
class FeatureInternalEntry:
    """A child pointer with MBR plus the paper's aggregates.

    ``max_score`` is the maximum ``t.s`` below the child; ``summary`` is
    the textual summary of all descendant keywords (union mask for the
    SRT-index, signature for the IR²-tree).
    """

    child: int
    rect: Rect
    max_score: float
    summary: int


@dataclass(slots=True, eq=False)
class Node:
    """An R-tree node: page id, level (0 = leaf) and entries.

    A node read from or written to a page carries that page's
    ``payload``.  For a leaf the payload is the primary representation:
    ``_leaf_arrays`` caches the :mod:`repro.index.leafdata` views over it
    and :attr:`entries` is materialised from its columns on first access
    (idempotent, so concurrent readers may race to fill either).  On a
    level-1 feature node ``_leaf_arrays`` holds its children's columns
    concatenated (``leafdata.SiblingBlock``) once a stream has scored
    them together.  Both
    views, and :meth:`mbr`, describe the page as last read or written:
    mutate ``entries``, then ``RTreeBase.write_node``, which re-encodes
    the payload and calls :meth:`invalidate_arrays`.
    """

    page_id: int
    level: int
    _entries: list | None = field(default=None, repr=False)
    payload: bytes | None = field(default=None, repr=False)
    _codec: object = field(default=None, repr=False)
    _leaf_arrays: object = field(default=None, repr=False)

    @property
    def entries(self) -> list:
        entries = self._entries
        if entries is None:
            entries = self._entries = self._codec.leaf_entries(self.payload)
        return entries

    @entries.setter
    def entries(self, entries: list) -> None:
        self._entries = entries

    @property
    def is_leaf(self) -> bool:
        return self.level == LEAF_LEVEL

    def invalidate_arrays(self) -> None:
        """Drop the cached columnar view or sibling block (the payload,
        or the children, may have changed)."""
        self._leaf_arrays = None

    def mbr(self) -> Rect:
        """MBR of all entries in this node."""
        if self.is_leaf and self.payload is not None:
            _, xs, ys = leaf_columns(self.payload)
            if len(xs):
                return Rect(
                    (xs.min().item(), ys.min().item()),
                    (xs.max().item(), ys.max().item()),
                )
        elif self.entries:
            return Rect.union_of(e.rect for e in self.entries)
        raise IndexError_(f"node {self.page_id} has no entries")


def leaf_columns(payload: bytes, mask_bytes: int = 0) -> tuple:
    """Read-only views over a leaf payload's columns.

    ``(ids, xs, ys)`` for an object leaf; with ``mask_bytes`` (a feature
    leaf) additionally ``scores`` and the keyword masks, one row per
    entry, read as the widest little-endian words that divide
    ``mask_bytes`` (popcounts over 8-byte words cost half those over
    bytes).  The object columns are a prefix of the feature ones, so the
    default works on either kind.  The payload must have passed the
    codec's ``decode`` size check.
    """
    count = _HEADER.unpack_from(payload)[1]
    offset = _HEADER.size
    columns = []
    for dtype in _LEAF_DTYPES[: 4 if mask_bytes else 3]:
        columns.append(np.frombuffer(payload, dtype, count, offset))
        offset += 8 * count
    if mask_bytes:
        word = math.gcd(mask_bytes, 8)
        words = mask_bytes // word
        masks = np.frombuffer(payload, f"<u{word}", count * words, offset)
        columns.append(masks.reshape(count, words))
    return tuple(columns)


def _pack_leaf(ids: list, *float_columns: list) -> bytes:
    """Leaf header plus the id column and the float columns after it."""
    floats = [value for column in float_columns for value in column]
    return _HEADER.pack(LEAF_LEVEL, len(ids)) + struct.pack(
        f"<{len(ids)}q{len(floats)}d", *ids, *floats
    )


class _NodeCodec:
    """What both codecs share: framing, the count check, fan-out.

    Subclasses set the two entry sizes and provide ``_leaf_payload``,
    ``leaf_entries``, ``_internal_row`` and ``_internal_entry``.
    """

    leaf_entry_size: int
    internal_entry_size: int

    def encode(self, node: Node) -> bytes:
        entries = node.entries
        if node.is_leaf:
            return self._leaf_payload(entries)
        return _HEADER.pack(node.level, len(entries)) + b"".join(
            map(self._internal_row, entries)
        )

    def decode(self, page_id: int, payload: bytes) -> Node:
        if len(payload) < _HEADER.size:
            raise StorageError(f"page {page_id}: node payload too short")
        level, count = _HEADER.unpack_from(payload)
        is_leaf = level == LEAF_LEVEL
        size = self.leaf_entry_size if is_leaf else self.internal_entry_size
        end = _HEADER.size + count * size
        if end > len(payload):
            # The count is page input; trusting it would read past the end.
            raise StorageError(
                f"page {page_id}: header claims {count} entries of {size} "
                f"bytes, payload has {len(payload)} bytes"
            )
        if is_leaf:
            return Node(page_id, level, payload=payload, _codec=self)
        entries = [
            self._internal_entry(payload, offset)
            for offset in range(_HEADER.size, end, size)
        ]
        return Node(page_id, level, entries, payload)

    def leaf_fanout(self, payload_capacity: int) -> int:
        return _fanout(payload_capacity, self.leaf_entry_size)

    def internal_fanout(self, payload_capacity: int) -> int:
        return _fanout(payload_capacity, self.internal_entry_size)


class ObjectNodeCodec(_NodeCodec):
    """Binary codec for data-object R-tree nodes."""

    leaf_entry_size = 3 * 8  # id, x, y
    internal_entry_size = _OBJ_INTERNAL.size

    def _leaf_payload(self, entries: list) -> bytes:
        return _pack_leaf(
            [e.oid for e in entries], [e.x for e in entries], [e.y for e in entries]
        )

    def leaf_entries(self, payload: bytes) -> list[ObjectLeafEntry]:
        """Entry objects of a leaf payload (off the query path)."""
        return list(
            map(ObjectLeafEntry, *(c.tolist() for c in leaf_columns(payload)))
        )

    def _internal_row(self, e: ObjectInternalEntry) -> bytes:
        return _OBJ_INTERNAL.pack(e.child, *e.rect.low, *e.rect.high)

    def _internal_entry(self, payload: bytes, offset: int) -> ObjectInternalEntry:
        child, x0, y0, x1, y1 = _OBJ_INTERNAL.unpack_from(payload, offset)
        return ObjectInternalEntry(child, Rect((x0, y0), (x1, y1)))


class FeatureNodeCodec(_NodeCodec):
    """Binary codec for feature-tree nodes.

    ``mask_bytes`` sizes the exact per-feature keyword masks stored in
    leaves; ``summary_bytes`` sizes the per-node textual summary stored in
    internal entries (equal to ``mask_bytes`` for the SRT-index, to the
    signature width for the IR²-tree).
    """

    def __init__(self, mask_bytes: int, summary_bytes: int) -> None:
        if mask_bytes < 1 or summary_bytes < 1:
            raise IndexError_("mask and summary widths must be positive")
        self.mask_bytes = mask_bytes
        self.summary_bytes = summary_bytes
        self.leaf_entry_size = 4 * 8 + mask_bytes  # id, x, y, score, mask
        self.internal_entry_size = _FEAT_INTERNAL_FIXED.size + summary_bytes

    def _leaf_payload(self, entries: list) -> bytes:
        fixed = _pack_leaf(
            [e.fid for e in entries],
            [e.x for e in entries],
            [e.y for e in entries],
            [e.score for e in entries],
        )
        return fixed + b"".join(
            _encode_big(e.mask, self.mask_bytes, e.fid) for e in entries
        )

    def leaf_entries(self, payload: bytes) -> list[FeatureLeafEntry]:
        """Entry objects of a leaf payload (off the query path)."""
        *fixed, masks = leaf_columns(payload, self.mask_bytes)
        raw, width = masks.tobytes(), self.mask_bytes
        mask_ints = [
            int.from_bytes(raw[i : i + width], "little")
            for i in range(0, len(raw), width)
        ]
        return list(
            map(FeatureLeafEntry, *(c.tolist() for c in fixed), mask_ints)
        )

    def _internal_row(self, e: FeatureInternalEntry) -> bytes:
        return _FEAT_INTERNAL_FIXED.pack(
            e.child, *e.rect.low, *e.rect.high, e.max_score
        ) + _encode_big(e.summary, self.summary_bytes, e.child)

    def _internal_entry(self, payload: bytes, offset: int) -> FeatureInternalEntry:
        child, x0, y0, x1, y1, max_score = _FEAT_INTERNAL_FIXED.unpack_from(
            payload, offset
        )
        offset += _FEAT_INTERNAL_FIXED.size
        summary = int.from_bytes(
            payload[offset : offset + self.summary_bytes], "little"
        )
        return FeatureInternalEntry(
            child, Rect((x0, y0), (x1, y1)), max_score, summary
        )


def _encode_big(value: int, width: int, owner: int) -> bytes:
    try:
        return value.to_bytes(width, "little")
    except OverflowError:
        raise IndexError_(
            f"entry {owner}: mask/summary does not fit {width} bytes"
        ) from None


def _fanout(payload_capacity: int, entry_size: int) -> int:
    fanout = (payload_capacity - _HEADER.size) // entry_size
    if fanout < 2:
        raise IndexError_(
            f"page too small: fan-out {fanout} for {entry_size}-byte entries"
        )
    return fanout
