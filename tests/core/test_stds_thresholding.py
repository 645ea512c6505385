"""White-box tests for STDS's early-termination thresholding."""

import pytest

from repro.core.query import PreferenceQuery
from repro.core.stds import _stds_range_batched, compute_scores_batch
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.model.objects import FeatureObject
from repro.text.vocabulary import Vocabulary

VOCAB = Vocabulary(["a"])


def tree_with(features):
    return SRTIndex.build(FeatureDataset(features, VOCAB, "t"))


class TestBatchedExpansion:
    def test_no_pending_objects_in_range_stops_expansion(self):
        """An entry with no pending object nearby must not be expanded:
        the traversal reads only the root when all objects are far."""
        features = [
            FeatureObject(i, 0.9, 0.9, 0.5, frozenset({0})) for i in range(50)
        ]
        tree = tree_with(features)
        tree.clear_cache()
        tree.stats.reset()
        query = PreferenceQuery(k=3, radius=0.01, lam=0.5, keyword_masks=(1,))
        scores = compute_scores_batch(
            tree, query, 1, {0: (0.1, 0.1), 1: (0.2, 0.2)}
        )
        assert scores == {0: 0.0, 1: 0.0}
        assert tree.stats.logical_reads <= 2  # root only (+meta none)

    def test_resolution_removes_objects_early(self):
        """Once an object's score is resolved by a high-score feature,
        later (lower-score) features never touch it."""
        features = [
            FeatureObject(0, 0.5, 0.5, 1.0, frozenset({0})),
            FeatureObject(1, 0.5, 0.51, 0.1, frozenset({0})),
        ]
        tree = tree_with(features)
        query = PreferenceQuery(k=1, radius=0.2, lam=0.0, keyword_masks=(1,))
        scores = compute_scores_batch(tree, query, 1, {7: (0.5, 0.5)})
        assert scores[7] == pytest.approx(1.0)  # the better feature won


class TestChunkThreshold:
    def test_later_chunks_skip_feature_sets(self):
        """With c = 2 and a decisive first chunk, objects in later chunks
        whose partial score cannot reach the threshold skip the second
        feature set entirely (upper bound τ̂ pruning of Algorithm 1)."""
        # Set 1: one great feature near the first-chunk objects.
        set1 = tree_with([FeatureObject(0, 0.1, 0.1, 1.0, frozenset({0}))])
        set2 = tree_with([FeatureObject(0, 0.1, 0.1, 1.0, frozenset({0}))])
        query = PreferenceQuery(k=1, radius=0.05, lam=0.0, keyword_masks=(1, 1))
        # First chunk: object right next to both features (score 2.0).
        # Second chunk: objects far away (score 0) — with threshold 2.0
        # and a perfect partial of 0 + 1 remaining set, they are pruned.
        objects = [(0, 0.1, 0.1)] + [(i, 0.9, 0.9) for i in range(1, 5)]
        set2.clear_cache()
        set2.stats.reset()
        candidates = _stds_range_batched(
            [set1, set2], query, objects, batch_size=1
        )
        best = max(candidates, key=lambda t: t[0])
        assert best[0] == pytest.approx(2.0)
        assert best[1] == 0

    def test_all_objects_scored_without_threshold(self):
        set1 = tree_with([FeatureObject(0, 0.5, 0.5, 0.6, frozenset({0}))])
        query = PreferenceQuery(k=100, radius=2.0, lam=0.0, keyword_masks=(1,))
        objects = [(i, 0.5, 0.5) for i in range(10)]
        candidates = _stds_range_batched([set1], query, objects, batch_size=3)
        assert len(candidates) == 10
        assert all(s == pytest.approx(0.6) for s, *_ in candidates)


class TestDropCursor:
    """The fold state's early drops: who is doomed, and when the scan may
    stop outright."""

    def setup_method(self):
        self.tree = tree_with([
            FeatureObject(0, 0.1, 0.1, 1.0, frozenset({0})),
            FeatureObject(1, 0.9, 0.9, 0.2, frozenset({0})),
        ])
        self.query = PreferenceQuery(
            k=1, radius=0.05, lam=0.0, keyword_masks=(1,)
        )
        self.pending = {0: (0.1, 0.1), 1: (0.9, 0.9), 2: (0.5, 0.5)}

    def test_all_equal_needed_ends_the_scan_at_the_cut(self):
        """A chunk's first feature set: one ``needed`` for everybody, so
        once the pop bound is under it every object left is doomed and
        the scan stops — object 1 is left at 0.0, not resolved to 0.2."""
        assert compute_scores_batch(
            self.tree, self.query, 1, self.pending
        ) == {0: 1.0, 1: 0.2, 2: 0.0}
        partial = dict.fromkeys(self.pending, 0.0)
        assert compute_scores_batch(
            self.tree, self.query, 1, self.pending,
            partial=partial, threshold=0.5, remaining_sets=0,
        ) == {0: 1.0, 1: 0.0, 2: 0.0}

    def test_an_undroppable_object_keeps_the_scan_going(self):
        """Object 1 already beats the threshold, so it has no ``needed``:
        the others being doomed from the first pop on must neither end
        the scan nor cost it its 0.2."""
        partial = {0: 0.0, 1: 2.0, 2: 0.0}
        assert compute_scores_batch(
            self.tree, self.query, 1, self.pending,
            partial=partial, threshold=1.5, remaining_sets=0,
        ) == {0: 0.0, 1: 0.2, 2: 0.0}
