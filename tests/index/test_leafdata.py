"""Tests for the columnar leaf views and the scalar fallback path.

The vectorized (numpy) and scalar code paths must produce identical
results; :func:`repro.index.leafdata.set_vectorized` lets us force the
fallback even when numpy is importable, so the fallback is exercised by
this suite regardless of the environment.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.query import PreferenceQuery, Variant
from repro.index.leafdata import (
    feature_leaf_arrays,
    object_leaf_arrays,
    pack_mask,
    set_vectorized,
    vectorized_enabled,
)
from repro.index.object_rtree import ObjectRTree
from tests.conftest import make_data_objects, random_mask


@pytest.fixture
def scalar_mode():
    """Force the pure-Python fallback for the duration of a test."""
    previous = set_vectorized(False)
    assert not vectorized_enabled()
    yield
    set_vectorized(previous)


class TestPacking:
    """``pack_mask`` lays a query mask out like a leaf's mask column."""

    def test_pack_mask_roundtrip(self):
        mask = 0b1011_0001
        packed = pack_mask(mask, 1)
        assert packed.dtype == np.uint8
        assert packed.tolist() == [mask]

    def test_pack_mask_multibyte(self):
        mask = (1 << 100) | 0b101
        packed = pack_mask(mask, 17)
        assert packed.shape == (17,)
        assert int.from_bytes(packed.tobytes(), "little") == mask

    def test_pack_mask_truncates_overflow(self):
        mask = (1 << 200) | 0b11
        assert pack_mask(mask, 1).tolist() == [0b11]


class TestToggle:
    def test_set_vectorized_returns_previous(self):
        first = set_vectorized(False)
        try:
            assert set_vectorized(False) is False
            assert not vectorized_enabled()
        finally:
            set_vectorized(first)

    def test_disabled_mode_returns_none(self, scalar_mode):
        tree = ObjectRTree.build(make_data_objects(50, seed=61))
        node = tree.read_node(tree.root_id)
        while not node.is_leaf:
            node = tree.read_node(node.entries[0].child)
        assert object_leaf_arrays(node) is None
        assert feature_leaf_arrays(node, 1) is None


class TestArrayCaching:
    def _leaf(self, tree):
        node = tree.read_node(tree.root_id)
        while not node.is_leaf:
            node = tree.read_node(node.entries[0].child)
        return node

    def test_object_arrays_cached_on_node(self):
        tree = ObjectRTree.build(make_data_objects(80, seed=62))
        node = self._leaf(tree)
        first = object_leaf_arrays(node)
        assert first is not None
        assert len(first) == len(node.entries)
        assert np.shares_memory(first.xs, np.frombuffer(node.payload, np.uint8))
        assert object_leaf_arrays(node) is first

    def test_invalidate_arrays_drops_view(self):
        tree = ObjectRTree.build(make_data_objects(80, seed=63))
        node = self._leaf(tree)
        first = object_leaf_arrays(node)
        node.invalidate_arrays()
        second = object_leaf_arrays(node)
        assert second is not None
        assert second is not first


class TestFallbackParity:
    """Scalar fallback must reproduce the vectorized results exactly."""

    def _queries(self, n, seed):
        rng = random.Random(seed)
        return [
            PreferenceQuery(
                k=rng.randint(2, 6),
                radius=rng.uniform(0.05, 0.15),
                lam=rng.choice([0.0, 0.3, 1.0]),
                keyword_masks=(random_mask(rng), random_mask(rng)),
            )
            for _ in range(n)
        ]

    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    def test_query_parity(self, srt_processor, algorithm):
        queries = self._queries(5, seed=65)
        fast = [
            srt_processor.query(q, algorithm=algorithm) for q in queries
        ]
        previous = set_vectorized(False)
        try:
            slow = [
                srt_processor.query(q, algorithm=algorithm) for q in queries
            ]
        finally:
            set_vectorized(previous)
        for a, b in zip(fast, slow):
            assert a.oids == b.oids
            assert a.scores == b.scores

    def test_variant_parity(self, srt_processor):
        base = self._queries(2, seed=66)
        for variant in (Variant.INFLUENCE, Variant.NEAREST):
            for q in base:
                query = q.with_variant(variant)
                fast = srt_processor.query(query)
                previous = set_vectorized(False)
                try:
                    slow = srt_processor.query(query)
                finally:
                    set_vectorized(previous)
                assert fast.oids == slow.oids
                assert fast.scores == slow.scores

    def test_range_search_parity(self, scalar_mode):
        objects = make_data_objects(300, seed=67)
        tree = ObjectRTree.build(objects)
        got = sorted(e.oid for e in tree.range_search((0.5, 0.5), 0.2))
        set_vectorized(True)
        tree2 = ObjectRTree.build(objects)
        fast = sorted(e.oid for e in tree2.range_search((0.5, 0.5), 0.2))
        assert fast == got
        # Brute-force ground truth.
        expected = sorted(
            o.oid
            for o in objects
            if (o.x - 0.5) ** 2 + (o.y - 0.5) ** 2 <= 0.2 * 0.2
        )
        assert got == expected
