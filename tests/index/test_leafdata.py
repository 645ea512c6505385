"""Tests for the columnar leaf views and the runs scored over them.

The per-entry formulas ``FeatureScorer.leaf_score`` / ``leaf_relevant``
are the reference: a :class:`~repro.index.leafdata.LeafRun` must hold
exactly the rows they call relevant, with bit-identical scores, best
first and ties in row order.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.query import PreferenceQuery, Variant
from repro.index.leafdata import object_leaf_arrays, pack_mask
from repro.index.nodes import FeatureLeafEntry
from repro.index.object_rtree import ObjectRTree
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.model.objects import FeatureObject
from repro.text.vocabulary import Vocabulary
from tests.conftest import make_data_objects, random_mask


def reference_run(entries: list[FeatureLeafEntry], scorer):
    """``(neg_scores, rows)`` of a leaf, one entry at a time."""
    keys = sorted(
        (-scorer.leaf_score(e), row)
        for row, e in enumerate(entries)
        if scorer.leaf_relevant(e)
    )
    return [neg for neg, _ in keys], [row for _, row in keys]


def assert_run_is_reference(tree, leaf, scorer) -> None:
    run = tree.leaf_run(leaf, scorer)
    assert (run.neg_scores, run.rows.tolist()) == reference_run(
        leaf.entries, scorer
    )
    assert run.fids.tolist() == [e.fid for e in leaf.entries]


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
    """The columnar path reproduces the per-entry formulas exactly."""

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
        """Every run the queries used is the per-entry reference."""
        queries = self._queries(5, seed=65)
        for query in queries:
            srt_processor.query(query, algorithm=algorithm)
        checked = 0
        for i, tree in enumerate(srt_processor.feature_trees):
            wanted = {(q.keyword_masks[i], q.lam) for q in queries}
            for leaf in tree.iter_leaves():
                for mask, lam in wanted & set(tree.leaf_arrays(leaf).memo):
                    assert_run_is_reference(
                        tree, leaf, tree.make_scorer(mask, lam)
                    )
                    checked += 1
        assert checked

    def test_variant_parity(self, srt_processor):
        """STPS pulls the variants' features from leaf runs; the STDS
        per-object adaptations score entry by entry."""
        base = self._queries(2, seed=66)
        for variant in (Variant.INFLUENCE, Variant.NEAREST):
            for q in base:
                query = q.with_variant(variant)
                runs = srt_processor.query(query, algorithm="stps")
                per_entry = srt_processor.query(query, algorithm="stds")
                assert runs.oids == per_entry.oids
                assert runs.scores == pytest.approx(per_entry.scores, abs=1e-12)

    def test_range_search_parity(self):
        objects = make_data_objects(300, seed=67)
        tree = ObjectRTree.build(objects)
        got = sorted(e.oid for e in tree.range_search((0.5, 0.5), 0.2))
        expected = sorted(
            o.oid
            for o in objects
            if (o.x - 0.5) ** 2 + (o.y - 0.5) ** 2 <= 0.2 * 0.2
        )
        assert got == expected

    def test_ties_overflow_masks_and_empty_relevance(self):
        """Equal scores keep row order; query bits beyond the packed
        mask width count towards the union only; a leaf sharing no
        keyword with the query is an empty run."""
        vocab = Vocabulary(f"kw{i}" for i in range(70))  # 9-byte masks
        features = [
            FeatureObject(fid, 0.1 * fid, 0.5, 0.5, frozenset({fid % 2, 69}))
            for fid in range(8)
        ]
        tree = SRTIndex.build(FeatureDataset(features, vocab, "ties"))
        (leaf,) = tree.iter_leaves()
        wide = (1 << 200) | (1 << 69) | 0b1
        for mask in (0b1, 0b11, 1 << 69, wide):
            for lam in (0.0, 0.3, 1.0):
                assert_run_is_reference(tree, leaf, tree.make_scorer(mask, lam))
        assert len(tree.leaf_run(leaf, tree.make_scorer(0b11, 0.0)).rows) == 8
        assert tree.leaf_run(leaf, tree.make_scorer(1 << 5, 0.5)).neg_scores == []
