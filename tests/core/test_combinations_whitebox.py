"""Behaviour tests for the combination iterator's join on pull."""

import pytest

from repro.core.combinations import CombinationIterator
from repro.core.query import PreferenceQuery
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.model.objects import FeatureObject
from repro.text.vocabulary import Vocabulary

VOCAB = Vocabulary(["a", "b"])


def make_tree(scores, x0=0.1):
    """One feature per score, all relevant to keyword 'a', spread on x."""
    features = [
        FeatureObject(i, x0 + 0.01 * i, 0.5, s, frozenset({0}))
        for i, s in enumerate(scores)
    ]
    return SRTIndex.build(FeatureDataset(features, VOCAB, "wb"))


def query(radius=1.0):
    return PreferenceQuery(k=3, radius=radius, lam=0.0, keyword_masks=(1, 1))


def drain(iterator):
    combos = []
    while True:
        combo = iterator.next()
        if combo is None:
            return combos
        combos.append(combo)


class TestJoinOnPull:
    def test_late_pulled_feature_joins_every_earlier_neighbour(self):
        """A feature that arrives after its partners were pulled still
        forms a combination with each of them, exactly once."""
        trees = [make_tree([0.9, 0.8, 0.7]), make_tree([0.9, 0.5])]
        iterator = CombinationIterator(trees, query(), enforce_2r=False)
        combos = drain(iterator)
        scores = [round(combo.score, 6) for combo in combos]
        # Full product (incl. one virtual per set): (3+1) x (2+1) = 12.
        assert len(scores) == 12
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == pytest.approx(1.8)
        assert scores[-1] == pytest.approx(0.0)
        # Set 1's second feature (0.5) is pulled after all of set 0's
        # stronger ones; it must still meet each of them.
        keys = [tuple(f.fid for f in combo.features) for combo in combos]
        assert len(set(keys)) == len(keys)
        assert {(0, 1), (1, 1), (2, 1)} <= set(keys)

    def test_late_pulled_feature_joins_only_neighbours_under_2r(self):
        """Range variant: the late arrival joins the earlier features
        within 2r of it and none of the others."""
        # Set 0 on x = 0.10, 0.11, 0.12; set 1's weak feature at 0.30.
        left = make_tree([0.9, 0.8, 0.7], x0=0.1)
        right = make_tree([0.2], x0=0.3)
        iterator = CombinationIterator(
            [left, right], query(radius=0.095), enforce_2r=True
        )
        keys = {
            tuple(f.fid for f in combo.features) for combo in drain(iterator)
        }
        # 2r = 0.19: 0.30 is within reach of 0.11 and 0.12 but not 0.10.
        assert (1, 0) in keys and (2, 0) in keys
        assert (0, 0) not in keys

    def test_virtual_joins_only_after_stream_exhausted(self):
        """``∅`` of a set pairs with nothing while that set's stream can
        still deliver: every combination holding ``∅_j`` is released
        after set j's last real feature was pulled."""
        trees = [make_tree([0.9, 0.8, 0.7]), make_tree([0.6, 0.1])]
        iterator = CombinationIterator(trees, query(), enforce_2r=False)
        while True:
            combo = iterator.next()
            if combo is None:
                break
            for j, feature in enumerate(combo.features):
                if feature.is_virtual:
                    assert iterator.pulled[j][-1].is_virtual
                    assert iterator.streams[j].exhausted

    def test_virtual_closes_each_set(self):
        """Nothing ranks below a set's virtual feature."""
        trees = [make_tree([0.9]), make_tree([0.8])]
        iterator = CombinationIterator(trees, query(), enforce_2r=False)
        combos = drain(iterator)
        assert len(combos) == 4  # (1+virtual) x (1+virtual)
        assert combos[-1].is_all_virtual

    def test_set_max_tightened_on_first_pull(self):
        trees = [make_tree([0.6, 0.5]), make_tree([0.4])]
        iterator = CombinationIterator(trees, query(), enforce_2r=False)
        # After construction each stream was pulled once: set_max exact.
        assert iterator.set_max[0] == pytest.approx(0.6)
        assert iterator.set_max[1] == pytest.approx(0.4)

    def test_threshold_drops_as_streams_drain(self):
        trees = [make_tree([0.9, 0.1]), make_tree([0.8, 0.2])]
        iterator = CombinationIterator(trees, query(), enforce_2r=False)
        first, source = iterator._threshold()
        while iterator.next() is not None:
            pass
        assert iterator._threshold() == (float("-inf"), None)
        assert first > 0.0
        assert source in (0, 1)

    def test_features_pulled_counter(self):
        trees = [make_tree([0.9, 0.8]), make_tree([0.7])]
        iterator = CombinationIterator(trees, query(), enforce_2r=False)
        while iterator.next() is not None:
            pass
        assert iterator.features_pulled == 3  # virtuals not counted


class TestValidityFilter:
    def test_far_pair_filtered_near_pair_kept(self):
        left = make_tree([0.9], x0=0.1)
        right = make_tree([0.8], x0=0.9)
        iterator = CombinationIterator(
            [left, right], query(radius=0.05), enforce_2r=True
        )
        combos = []
        while True:
            combo = iterator.next()
            if combo is None:
                break
            combos.append(combo)
        # (t1, t2) is invalid (0.8 apart > 2r = 0.1); the singles with a
        # virtual partner and the all-virtual combination survive.
        keys = [
            tuple(f.is_virtual for f in combo.features) for combo in combos
        ]
        assert (False, False) not in keys
        assert (False, True) in keys
        assert (True, False) in keys
        assert (True, True) in keys
