"""Tests for the influence-score STPS (Algorithm 5)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force
from repro.core.query import PreferenceQuery, Variant
from repro.core.stps import _combo_influence_bound_cached, stps
from repro.core.stream import StreamedFeature, virtual_feature
from tests.conftest import random_mask


def _q(masks, k=5, radius=0.08, lam=0.5):
    return PreferenceQuery(
        k=k,
        radius=radius,
        lam=lam,
        keyword_masks=masks,
        variant=Variant.INFLUENCE,
    )


class TestCorrectness:
    @pytest.mark.parametrize("index", ["srt", "ir2"])
    def test_matches_brute_force(self, request, objects, feature_sets, index):
        processor = request.getfixturevalue(f"{index}_processor")
        rng = random.Random(31)
        for _ in range(4):
            query = _q((random_mask(rng), random_mask(rng)))
            got = stps(processor.object_tree, processor.feature_trees, query)
            want = brute_force(objects, feature_sets, query)
            assert got.scores == pytest.approx(want.scores, abs=1e-9)

    @pytest.mark.parametrize("radius", [0.01, 0.3])
    def test_radius_extremes(self, srt_processor, objects, feature_sets, radius):
        query = _q((0b110, 0b1010), radius=radius)
        got = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_k_one(self, srt_processor, objects, feature_sets):
        query = _q((0b11, 0b11), k=1)
        got = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_rare_keyword(self, srt_processor, objects, feature_sets):
        query = _q((1 << 31, 1 << 30))
        got = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)


def _features(members):
    """``(x, y, s)`` members as one combination's streamed features, fid
    = slot."""
    return [StreamedFeature(i, x, y, s) for i, (x, y, s) in enumerate(members)]


def _bound(features, radius):
    return _combo_influence_bound_cached(features, radius, {})


def _influence(features, radius, px, py):
    return sum(
        f.score * 2.0 ** (-math.hypot(px - f.x, py - f.y) / radius)
        for f in features
        if not f.is_virtual
    )


class TestInfluenceBound:
    """The distance-aware pruning bound must dominate any point's score."""

    def test_single_member(self):
        assert _bound(_features([(0.5, 0.5, 0.8)]), 0.1) == 0.8

    def test_colocated_members_sum(self):
        members = _features([(0.5, 0.5, 0.6), (0.5, 0.5, 0.7)])
        assert _bound(members, 0.1) == pytest.approx(1.3)

    def test_far_members_bound_near_max(self):
        members = _features([(0.0, 0.0, 0.9), (1.0, 1.0, 0.9)])
        assert _bound(members, 0.01) < 0.91  # cannot collect both

    @pytest.mark.parametrize("seed", range(5))
    def test_dominates_grid_of_points(self, seed):
        rng = random.Random(seed)
        members = _features(
            [(rng.random(), rng.random(), rng.random()) for _ in range(3)]
        )
        radius = 0.05 + rng.random() * 0.2
        bound = _bound(members, radius)
        for _ in range(500):
            px, py = rng.random(), rng.random()
            assert _influence(members, radius, px, py) <= bound + 1e-9

    def test_dominated_by_sum(self):
        rng = random.Random(42)
        members = _features(
            [(rng.random(), rng.random(), rng.random()) for _ in range(4)]
        )
        assert _bound(members, 0.1) <= sum(f.score for f in members) + 1e-12


unit = st.floats(0.0, 1.0)


@st.composite
def combinations(draw):
    """1-4 real members and 0-2 virtual ones, in drawn slot order."""
    real = [
        StreamedFeature(draw(st.integers(0, 99)), draw(unit), draw(unit),
                        draw(unit))
        for _ in range(draw(st.integers(1, 4)))
    ]
    slots = real + [virtual_feature()] * draw(st.integers(0, 2))
    return draw(st.permutations(slots))


class TestInfluenceBoundProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        combinations(),
        st.floats(0.01, 0.5),
        st.lists(st.tuples(unit, unit), max_size=20),
    )
    def test_sound_tight_and_cache_stable(self, features, radius, points):
        distances: dict = {}
        bound = _combo_influence_bound_cached(features, radius, distances)
        real = [f for f in features if not f.is_virtual]
        for px, py in [(f.x, f.y) for f in real] + points:
            assert _influence(features, radius, px, py) <= bound + 1e-9
        assert bound <= sum(f.score for f in real) + 1e-12
        if len(real) == 1:
            assert bound == real[0].score
        warm = _combo_influence_bound_cached(features, radius, distances)
        assert warm == bound == _bound(features, radius)
