"""Tests for the sorted feature stream (Algorithm 4, lines 3-7)."""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stream import VIRTUAL_FID, FeatureStream, virtual_feature
from repro.index.ir2 import IR2Tree
from repro.index.nodes import FeatureLeafEntry
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.model.objects import FeatureObject
from repro.storage.pagefile import MemoryPageFile
from repro.text.similarity import jaccard
from repro.text.vocabulary import Vocabulary
from tests.conftest import VOCAB_SIZE, make_feature_objects, random_mask


@pytest.fixture(scope="module")
def dataset():
    vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
    return FeatureDataset(make_feature_objects(300, seed=55), vocab, "s")


@pytest.fixture(scope="module", params=[SRTIndex, IR2Tree])
def tree(request, dataset):
    return request.param.build(dataset)


def brute_force_scores(dataset, mask, lam):
    out = []
    for f in dataset:
        fm = f.keyword_mask()
        if fm & mask:
            out.append((round((1 - lam) * f.score + lam * jaccard(fm, mask), 12), f.fid))
    out.sort(key=lambda t: (-t[0], t[1]))
    return out


class TestOrdering:
    def test_descending_scores_and_completeness(self, tree, dataset):
        rng = random.Random(1)
        for _ in range(4):
            mask = random_mask(rng)
            stream = FeatureStream(tree, mask, 0.5)
            got = []
            while True:
                f = stream.next()
                if f is None:
                    break
                if not f.is_virtual:
                    got.append((round(f.score, 12), f.fid))
            expected = brute_force_scores(dataset, mask, 0.5)
            # Same multiset, non-increasing order.
            assert sorted(got) == sorted(expected)
            scores = [s for s, _ in got]
            assert scores == sorted(scores, reverse=True)

    def test_only_relevant_features_streamed(self, tree, dataset):
        mask = 1 << 3
        stream = FeatureStream(tree, mask, 0.5)
        while True:
            f = stream.next()
            if f is None:
                break
            if f.is_virtual:
                continue
            assert dataset.get(f.fid).keyword_mask() & mask


class TestVirtual:
    def test_virtual_is_last(self, tree):
        stream = FeatureStream(tree, 1 << 5, 0.5)
        items = []
        while True:
            f = stream.next()
            if f is None:
                break
            items.append(f)
        assert items[-1].is_virtual
        assert items[-1].score == 0.0
        assert items[-1].fid == VIRTUAL_FID
        assert sum(1 for f in items if f.is_virtual) == 1

    def test_virtual_suppressed(self, tree):
        stream = FeatureStream(tree, 1 << 5, 0.5, emit_virtual=False)
        while True:
            f = stream.next()
            if f is None:
                break
            assert not f.is_virtual

    def test_virtual_feature_helper(self):
        v = virtual_feature()
        assert v.is_virtual and v.score == 0.0


class TestNextBound:
    def test_bound_dominates_next(self, tree):
        rng = random.Random(2)
        mask = random_mask(rng)
        stream = FeatureStream(tree, mask, 0.5)
        while True:
            bound = stream.next_bound
            f = stream.next()
            if f is None:
                assert bound is None
                break
            assert bound is not None
            assert f.score <= bound + 1e-9

    def test_exhausted_flag(self, tree):
        stream = FeatureStream(tree, 1 << 2, 0.5)
        assert not stream.exhausted
        while stream.next() is not None:
            pass
        assert stream.exhausted
        assert stream.next() is None  # stays exhausted

    def test_empty_tree_stream(self, dataset):
        empty = SRTIndex.build(
            FeatureDataset([], dataset.vocabulary, "empty")
        )
        stream = FeatureStream(empty, 0b1, 0.5)
        f = stream.next()
        assert f is not None and f.is_virtual
        assert stream.next() is None

    def test_pull_counter(self, tree):
        stream = FeatureStream(tree, (1 << 1) | (1 << 9), 0.5)
        n = 0
        while True:
            f = stream.next()
            if f is None:
                break
            if not f.is_virtual:
                n += 1
        assert stream.stats.features_pulled == n


def reference_stream(tree, mask, lam):
    """Best-first search with every feature its own heap entry: the
    ``(fid, score)`` sequence the run-at-a-time stream must reproduce."""
    scorer = tree.make_scorer(mask, lam)
    heap, out, pushed = [], [], itertools.count()

    def push(node):
        for entry in node.entries:
            if scorer.relevant(entry):
                heapq.heappush(heap, (-scorer.bound(entry), next(pushed), entry))

    if tree.count:
        push(tree.read_node(tree.root_id))
    while heap:
        neg, _, entry = heapq.heappop(heap)
        if isinstance(entry, FeatureLeafEntry):
            out.append((entry.fid, -neg))
        else:
            push(tree.read_node(entry.child))
    return out


def count_nodes(tree) -> int:
    stack = [tree.root_id] if tree.count else []
    n = 0
    while stack:
        node = tree.read_node(stack.pop())
        n += 1
        if not node.is_leaf:
            stack.extend(entry.child for entry in node.entries)
    return n


@st.composite
def stream_cases(draw):
    """A small tree with many score ties, and a query against it."""
    vocab_size = draw(st.sampled_from([64, 130, 192]))
    # Few distinct quality scores and keyword sets: ties within a leaf,
    # across leaves and between a feature and a node bound.
    scores = draw(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=4)
    )
    keywords = draw(
        st.lists(
            st.frozensets(st.integers(0, vocab_size - 9), min_size=1, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    rng = random.Random(draw(st.integers(0, 2**16)))
    features = [
        FeatureObject(
            fid, rng.random(), rng.random(), rng.choice(scores), rng.choice(keywords)
        )
        for fid in range(draw(st.integers(0, 90)))
    ]
    # Query terms come from the features' keywords or from the top eight
    # bits, which no feature has: some masks match nothing.
    pool = sorted(set().union(*keywords)) + list(range(vocab_size - 8, vocab_size))
    terms = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
    return (
        vocab_size,
        features,
        sum(1 << t for t in terms),
        draw(st.sampled_from([0.0, 0.3, 1.0])),
        draw(st.sampled_from([SRTIndex, IR2Tree])),
    )


class TestRunMerge:
    """The lazy k-way merge of leaf runs is the per-feature heap, cheaper."""

    @given(stream_cases())
    @settings(max_examples=120, deadline=None)
    def test_emits_reference_sequence(self, case):
        vocab_size, features, mask, lam, index = case
        vocab = Vocabulary(f"kw{i}" for i in range(vocab_size))
        tree = index.build(
            FeatureDataset(features, vocab, "prop"),
            pagefile=MemoryPageFile(page_size=512),
        )
        n_nodes = count_nodes(tree)
        expected = reference_stream(tree, mask, lam)
        # Twice: the second stream reads the runs the first memoised.
        for _ in range(2):
            stream = FeatureStream(tree, mask, lam)
            got, bounds = [], []
            while True:
                assert len(stream._heap) <= n_nodes
                bounds.append(stream.next_bound)
                feature = stream.next()
                if feature is None:
                    break
                got.append((feature.fid, feature.score))
            assert got[:-1] == expected  # ties included, bit for bit
            assert got[-1] == (VIRTUAL_FID, 0.0)
            assert stream.stats.features_pulled == len(expected)
            # next_bound dominates everything delivered after it.
            later = 0.0
            for bound, (_, score) in zip(reversed(bounds[:-1]), reversed(got)):
                later = max(later, score)
                assert bound >= later
            assert bounds[-1] is None and stream.exhausted
