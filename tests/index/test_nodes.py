"""Tests for node formats and binary codecs."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_, StorageError
from repro.geometry.rect import Rect
from repro.index.feature_tree import FeatureScorer
from repro.index.leafdata import FeatureLeafArrays, ObjectLeafArrays
from repro.index.nodes import (
    FeatureInternalEntry,
    FeatureLeafEntry,
    FeatureNodeCodec,
    Node,
    ObjectInternalEntry,
    ObjectLeafEntry,
    ObjectNodeCodec,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
PAYLOAD_CAPACITY = 4088  # a 4 KiB page


class TestObjectCodec:
    def test_leaf_roundtrip(self):
        codec = ObjectNodeCodec()
        node = Node(7, 0, [ObjectLeafEntry(1, 0.2, 0.3), ObjectLeafEntry(2, 0.4, 0.5)])
        decoded = codec.decode(7, codec.encode(node))
        assert decoded.is_leaf
        assert decoded.entries == node.entries

    def test_internal_roundtrip(self):
        codec = ObjectNodeCodec()
        node = Node(
            3,
            2,
            [ObjectInternalEntry(11, Rect((0.0, 0.0), (0.5, 0.5)))],
        )
        decoded = codec.decode(3, codec.encode(node))
        assert decoded.level == 2
        assert decoded.entries == node.entries

    def test_fanout_from_page_size(self):
        codec = ObjectNodeCodec()
        assert codec.leaf_fanout(4088) == (4088 - 3) // 24
        assert codec.internal_fanout(4088) == (4088 - 3) // 40

    def test_fanout_too_small(self):
        with pytest.raises(IndexError_):
            ObjectNodeCodec().leaf_fanout(40)

    def test_truncated_payload(self):
        with pytest.raises(StorageError):
            ObjectNodeCodec().decode(0, b"\x00")


class TestFeatureCodec:
    def test_leaf_roundtrip_with_mask(self):
        codec = FeatureNodeCodec(mask_bytes=16, summary_bytes=16)
        entries = [
            FeatureLeafEntry(1, 0.1, 0.2, 0.9, (1 << 100) | 0b11),
            FeatureLeafEntry(2, 0.3, 0.4, 0.1, 0),
        ]
        node = Node(5, 0, entries)
        assert codec.decode(5, codec.encode(node)).entries == entries

    def test_internal_roundtrip_with_aggregates(self):
        codec = FeatureNodeCodec(mask_bytes=8, summary_bytes=8)
        entries = [
            FeatureInternalEntry(
                9, Rect((0.0, 0.0), (1.0, 1.0)), 0.875, 0xDEADBEEF
            )
        ]
        node = Node(2, 1, entries)
        decoded = codec.decode(2, codec.encode(node))
        assert decoded.entries == entries

    def test_mask_overflow_detected(self):
        codec = FeatureNodeCodec(mask_bytes=1, summary_bytes=1)
        node = Node(0, 0, [FeatureLeafEntry(1, 0.0, 0.0, 0.5, 1 << 20)])
        with pytest.raises(IndexError_):
            codec.encode(node)

    def test_vocabulary_width_shrinks_fanout(self):
        """The effect behind Figure 7(d): bigger vocab -> smaller nodes."""
        small = FeatureNodeCodec(mask_bytes=8, summary_bytes=8)
        large = FeatureNodeCodec(mask_bytes=32, summary_bytes=32)
        assert large.leaf_fanout(4088) < small.leaf_fanout(4088)
        assert large.internal_fanout(4088) < small.internal_fanout(4088)

    def test_invalid_widths(self):
        with pytest.raises(IndexError_):
            FeatureNodeCodec(mask_bytes=0, summary_bytes=8)


_FEATURE_CODEC = FeatureNodeCodec(mask_bytes=4, summary_bytes=4)
_RECT = Rect((0.0, 0.0), (1.0, 1.0))
NODE_KINDS = {
    "object-leaf": (ObjectNodeCodec(), 0, ObjectLeafEntry(1, 0.2, 0.3)),
    "object-internal": (ObjectNodeCodec(), 1, ObjectInternalEntry(5, _RECT)),
    "feature-leaf": (_FEATURE_CODEC, 0, FeatureLeafEntry(1, 0.2, 0.3, 0.5, 0b101)),
    "feature-internal": (
        _FEATURE_CODEC, 1, FeatureInternalEntry(5, _RECT, 0.5, 0b111),
    ),
}


@pytest.mark.parametrize("kind", sorted(NODE_KINDS))
class TestUntrustedCount:
    """The header's entry count is page input: check it against the bytes."""

    def _payload(self, kind):
        codec, level, entry = NODE_KINDS[kind]
        return codec, codec.encode(Node(3, level, [entry, entry]))

    def test_truncated_payload(self, kind):
        codec, payload = self._payload(kind)
        with pytest.raises(StorageError, match="page 3"):
            codec.decode(3, payload[:-1])

    def test_oversized_count(self, kind):
        codec, payload = self._payload(kind)
        level = payload[0]
        forged = struct.pack("<BH", level, 60_000) + payload[3:]
        with pytest.raises(StorageError, match="page 3"):
            codec.decode(3, forged)

    def test_exact_payload_accepted(self, kind):
        codec, payload = self._payload(kind)
        assert len(codec.decode(3, payload).entries) == 2


@st.composite
def feature_leaves(draw):
    """(codec, entries): 0 … fan-out entries at a drawn vocabulary size."""
    vocab = draw(st.sampled_from([1, 8, 64, 65, 130, 256]))
    codec = FeatureNodeCodec(
        mask_bytes=(vocab + 7) // 8, summary_bytes=(vocab + 7) // 8
    )
    n = draw(st.integers(0, codec.leaf_fanout(PAYLOAD_CAPACITY)))
    # One drawn template per column keeps a fan-out-sized leaf cheap to
    # generate; per-entry variation comes from the index.
    fid0, mask0 = draw(int64), draw(st.integers(0, 2**vocab - 1))
    x0, y0, s0 = draw(unit), draw(unit), draw(unit)
    shift = draw(st.integers(0, vocab))
    entries = [
        FeatureLeafEntry(
            (fid0 + i * 2**40 + 2**63) % 2**64 - 2**63,
            (x0 + i / 7) % 1.0,
            (y0 + i / 11) % 1.0,
            (s0 + i / 13) % 1.0,
            ((mask0 << (i % (shift + 1))) | (mask0 >> (i % 5))) % 2**vocab,
        )
        for i in range(n)
    ]
    return codec, entries


class TestColumnarLeaf:
    """A leaf's arrays are views over its payload, equal to its entries."""

    @given(feature_leaves(), st.integers(0, 2**70), st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_feature_leaf_roundtrip_views_and_scores(self, leaf, query_mask, lam):
        codec, entries = leaf
        payload = codec.encode(Node(9, 0, entries))
        assert len(payload) <= PAYLOAD_CAPACITY
        decoded = codec.decode(9, payload)
        assert decoded.entries == entries
        arrays = FeatureLeafArrays(payload, codec.mask_bytes)
        raw = np.frombuffer(payload, np.uint8)
        for column in (arrays.fids, arrays.xs, arrays.ys, arrays.scores, arrays.masks):
            assert not column.flags.writeable
            assert len(column) == len(entries)
            assert not entries or np.shares_memory(column, raw)
        scorer = FeatureScorer(query_mask, lam, sim_upper=None)
        run = scorer.leaf_run(arrays)
        rows = run.rows.tolist()
        assert sorted(rows) == [
            i for i, e in enumerate(entries) if scorer.leaf_relevant(e)
        ]
        assert run.neg_scores == [-scorer.leaf_score(entries[i]) for i in rows]
        # Best first, ties in row order.
        keys = list(zip(run.neg_scores, rows))
        assert keys == sorted(keys)
        assert run.fids.tolist() == [e.fid for e in entries]
        assert scorer.leaf_run(arrays) is run  # memoised under (mask, lam)

    @given(st.lists(st.tuples(int64, unit, unit), max_size=170))
    @settings(max_examples=40, deadline=None)
    def test_object_leaf_roundtrip_and_views(self, raw_entries):
        codec = ObjectNodeCodec()
        entries = [ObjectLeafEntry(*row) for row in raw_entries]
        payload = codec.encode(Node(0, 0, entries))
        assert codec.decode(0, payload).entries == entries
        arrays = ObjectLeafArrays(payload)
        assert not arrays.oids.flags.writeable
        assert (arrays.oids.tolist(), arrays.xs.tolist(), arrays.ys.tolist()) == (
            [e.oid for e in entries],
            [e.x for e in entries],
            [e.y for e in entries],
        )

    def test_mbr_from_columns_matches_entries(self):
        codec = ObjectNodeCodec()
        entries = [ObjectLeafEntry(0, 0.1, 0.9), ObjectLeafEntry(1, 0.5, 0.2)]
        decoded = codec.decode(0, codec.encode(Node(0, 0, entries)))
        assert decoded.mbr() == Node(0, 0, entries).mbr()
        assert decoded._entries is None  # no Rect-per-entry detour

    def test_empty_decoded_leaf_mbr_rejected(self):
        codec = ObjectNodeCodec()
        with pytest.raises(IndexError_):
            codec.decode(0, codec.encode(Node(0, 0, []))).mbr()


class TestNodeMbr:
    def test_mbr_of_leaf(self):
        node = Node(0, 0, [ObjectLeafEntry(0, 0.1, 0.9), ObjectLeafEntry(1, 0.5, 0.2)])
        assert node.mbr() == Rect((0.1, 0.2), (0.5, 0.9))

    def test_empty_node_mbr_rejected(self):
        with pytest.raises(IndexError_):
            Node(0, 0, []).mbr()
