"""Behaviour tests for the combination iterator's join on pull."""

import random

import pytest

from repro.core.combinations import (
    PULL_PRIORITIZED,
    PULL_ROUND_ROBIN,
    CombinationIterator,
)
from repro.core.query import PreferenceQuery, Variant
from repro.core.stps import stps
from repro.index.object_rtree import ObjectRTree
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import FeatureObject
from repro.storage.pagefile import MemoryPageFile
from repro.text.vocabulary import Vocabulary
from tests.conftest import (
    VOCAB_SIZE,
    make_data_objects,
    make_feature_objects,
    random_mask,
)

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
        assert iterator.stats.features_pulled == 3  # virtuals not counted


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


class TestPinnedWork:
    """Sorted access and the join got cheaper, not different.

    Six seeded queries over three 600-feature sets on 512-byte pages (55
    leaves each); the constants are what the per-feature stream heap and
    the nine-cell grid probe did at commit ef1af7e.  A change that pulls
    other features, opens other nodes or forms other tuples moves them.
    """

    #: (c, pulling) -> (features pulled, nodes visited per set,
    #: combinations released, combinations rejected by the 2r rule).
    PINNED = {
        (2, PULL_PRIORITIZED): (226, [236, 233], 21, 0),
        (2, PULL_ROUND_ROBIN): (306, [252, 245], 21, 0),
        (3, PULL_PRIORITIZED): (1160, [299, 303, 323], 68, 40),
        (3, PULL_ROUND_ROBIN): (1321, [309, 322, 328], 68, 39),
    }

    @pytest.fixture(scope="class")
    def world(self):
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        trees = [
            SRTIndex.build(
                FeatureDataset(
                    make_feature_objects(600, seed=70 + i), vocab, f"s{i}"
                ),
                pagefile=MemoryPageFile(page_size=512),
            )
            for i in range(3)
        ]
        objects = ObjectRTree.build(ObjectDataset(make_data_objects(600, seed=69)))
        return objects, trees

    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("pulling", [PULL_PRIORITIZED, PULL_ROUND_ROBIN])
    def test_counts_equal_parent_commit(self, world, c, pulling):
        objects, trees = world
        rng = random.Random(5)
        pulled, released, rejected = 0, 0, 0
        visited = [0] * c
        for _ in range(6):
            query = PreferenceQuery(
                k=5, radius=0.06, lam=0.5,
                keyword_masks=tuple(random_mask(rng) for _ in range(c)),
            )
            stats = stps(objects, trees[:c], query, pulling=pulling).stats
            pulled += stats.features_pulled
            released += stats.combinations
            rejected += stats.rejected_2r
            for diag in stats.feature_sets:
                visited[diag.set_id] += diag.nodes_visited
        assert (pulled, visited, released, rejected) == self.PINNED[c, pulling]

    #: (variant, c) -> (combinations released, retrievals skipped by the
    #: influence bound, objects scored, Voronoi cells computed, cell cache
    #: hits, empty cell intersections) over the first two of the queries
    #: above at radius 0.5; recorded when the influence variant still ran
    #: its own loop (commit 9a407fe).
    PINNED_VARIANTS = {
        (Variant.INFLUENCE, 2): (211, 194, 36, 0, 0, 0),
        (Variant.INFLUENCE, 3): (9876, 9825, 59, 0, 0, 0),
        (Variant.NEAREST, 2): (153, 0, 12, 78, 224, 145),
        (Variant.NEAREST, 3): (17389, 0, 11, 347, 35028, 17372),
    }

    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("variant", [Variant.INFLUENCE, Variant.NEAREST])
    def test_variant_work_equals_parent_commit(self, world, c, variant):
        objects, trees = world
        rng = random.Random(5)
        totals = [0] * 6
        for _ in range(2):
            query = PreferenceQuery(
                k=5, radius=0.5, lam=0.5,
                keyword_masks=tuple(random_mask(rng) for _ in range(c)),
                variant=variant,
            )
            stats = stps(objects, trees[:c], query).stats
            work = (
                stats.combinations, stats.retrievals_skipped,
                stats.objects_scored, stats.voronoi_cells_computed,
                stats.voronoi_cell_cache_hits,
                stats.voronoi_empty_intersections,
            )
            totals = [a + b for a, b in zip(totals, work)]
        assert tuple(totals) == self.PINNED_VARIANTS[variant, c]
