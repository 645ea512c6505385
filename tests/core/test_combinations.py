"""Tests for the valid-combination iterator (Algorithm 4)."""

import itertools
import math
import random

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.data.workload import WorkloadSpec, make_workload
from repro.errors import QueryError
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.text.similarity import jaccard
from repro.text.vocabulary import Vocabulary
from tests.conftest import (
    VOCAB_SIZE,
    combination_iterator,
    make_feature_objects,
    random_mask,
)


@pytest.fixture(scope="module")
def small_world():
    vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
    sets = [
        FeatureDataset(make_feature_objects(60, seed=61), vocab, "A"),
        FeatureDataset(make_feature_objects(60, seed=62), vocab, "B"),
    ]
    trees = [SRTIndex.build(fs) for fs in sets]
    return sets, trees


def feature_score(f, mask, lam=0.5):
    fm = f.keyword_mask()
    if not fm & mask:
        return None
    return (1 - lam) * f.score + lam * jaccard(fm, mask)


def brute_combinations(sets, masks, radius, enforce_2r, lam=0.5):
    """All valid combinations (including virtual slots) with scores."""
    per_set = []
    for fs, mask in zip(sets, masks):
        scored = [
            (feature_score(f, mask, lam), f)
            for f in fs
            if feature_score(f, mask, lam) is not None
        ]
        scored.append((0.0, None))  # the virtual feature
        per_set.append(scored)
    combos = []
    for combo in itertools.product(*per_set):
        feats = [f for _, f in combo]
        if enforce_2r:
            real = [f for f in feats if f is not None]
            ok = all(
                math.hypot(a.x - b.x, a.y - b.y) <= 2 * radius
                for a, b in itertools.combinations(real, 2)
            )
            if not ok:
                continue
        combos.append(round(sum(s for s, _ in combo), 9))
    combos.sort(reverse=True)
    return combos


class TestFullEnumeration:
    @pytest.mark.parametrize("enforce_2r", [True, False])
    def test_matches_brute_force_order(self, small_world, enforce_2r):
        """The range variant joins under the 2r rule, influence without."""
        sets, trees = small_world
        rng = random.Random(3)
        masks = (random_mask(rng, 2), random_mask(rng, 2))
        query = PreferenceQuery(
            k=5, radius=0.15, lam=0.5, keyword_masks=masks,
            variant=Variant.RANGE if enforce_2r else Variant.INFLUENCE,
        )
        iterator = combination_iterator(trees, query)
        got = []
        while True:
            combo = iterator.next()
            if combo is None:
                break
            got.append(round(combo.score, 9))
        expected = brute_combinations(sets, masks, 0.15, enforce_2r)
        assert got == expected

    def test_scores_non_increasing(self, small_world):
        _, trees = small_world
        query = PreferenceQuery(
            k=5, radius=0.1, lam=0.5, keyword_masks=(0b111, 0b1110)
        )
        iterator = combination_iterator(trees, query)
        prev = math.inf
        while True:
            combo = iterator.next()
            if combo is None:
                break
            assert combo.score <= prev + 1e-9
            prev = combo.score

    def test_no_duplicate_combinations(self, small_world):
        _, trees = small_world
        query = PreferenceQuery(
            k=5, radius=0.2, lam=0.5, keyword_masks=(0b11, 0b1100),
            variant=Variant.INFLUENCE,
        )
        iterator = combination_iterator(trees, query)
        seen = set()
        while True:
            combo = iterator.next()
            if combo is None:
                break
            key = tuple(f.fid for f in combo.features)
            assert key not in seen
            seen.add(key)


class TestValidity:
    def test_2r_filter(self, small_world):
        _, trees = small_world
        radius = 0.05
        query = PreferenceQuery(
            k=5, radius=radius, lam=0.5, keyword_masks=(0b111, 0b111)
        )
        iterator = combination_iterator(trees, query)
        while True:
            combo = iterator.next()
            if combo is None:
                break
            real = [f for f in combo.features if not f.is_virtual]
            for a, b in itertools.combinations(real, 2):
                assert math.hypot(a.x - b.x, a.y - b.y) <= 2 * radius + 1e-12

    def test_all_virtual_appears_last(self, small_world):
        _, trees = small_world
        query = PreferenceQuery(
            k=5, radius=0.3, lam=0.5, keyword_masks=(0b1, 0b1),
            variant=Variant.INFLUENCE,
        )
        iterator = combination_iterator(trees, query)
        combos = []
        while True:
            c = iterator.next()
            if c is None:
                break
            combos.append(c)
        assert combos[-1].is_all_virtual
        assert combos[-1].score == 0.0


class TestValidation:
    def test_tree_count_mismatch(self, small_world):
        _, trees = small_world
        query = PreferenceQuery(k=5, radius=0.1, lam=0.5, keyword_masks=(1,))
        with pytest.raises(QueryError):
            combination_iterator(trees, query)

    def test_three_sets(self, small_world):
        sets, _ = small_world
        vocab = sets[0].vocabulary
        extra = FeatureDataset(make_feature_objects(40, seed=63), vocab, "C")
        trees3 = [SRTIndex.build(fs) for fs in [*sets, extra]]
        masks = (0b11, 0b110, 0b1010)
        query = PreferenceQuery(
            k=3, radius=0.2, lam=0.5, keyword_masks=masks,
            variant=Variant.INFLUENCE,
        )
        iterator = combination_iterator(trees3, query)
        got = []
        while True:
            combo = iterator.next()
            if combo is None:
                break
            got.append(round(combo.score, 9))
        expected = brute_combinations(
            [*sets, extra], masks, 0.2, enforce_2r=False
        )
        assert got == expected


class TestWastedWork:
    """Lemma 1 is applied while joining, not after enumerating: what is
    still popped and rejected is bounded by what is released."""

    @pytest.mark.parametrize("c", [2, 3])
    def test_rejections_bounded_by_releases(self, c):
        objects = synthetic_objects(300, seed=1)
        feature_sets = synthetic_feature_sets(c, 200, 64, seed=2)
        processor = QueryProcessor.build(objects, feature_sets)
        queries = make_workload(
            feature_sets, WorkloadSpec(n_queries=12, seed=3)
        )
        released = rejected = 0
        for query in queries:
            combinations = processor.explain(
                query, algorithm="stps"
            ).plan.combinations
            released += combinations.released
            rejected += combinations.rejected_2r
        assert released > 0
        if c == 2:
            # The one pair of a c = 2 tuple is the anchor and its own
            # grid neighbour.
            assert rejected == 0
        else:
            # Only pairs among one anchor's neighbours can still fail.
            assert rejected <= c * released
