"""Tests for STPS, range variant (Algorithm 3)."""

import random

import pytest

from repro.core.bruteforce import brute_force
from repro.core.query import PreferenceQuery
from repro.core.stps import stps
from tests.conftest import random_mask


def _q(masks, k=5, radius=0.08, lam=0.5):
    return PreferenceQuery(k=k, radius=radius, lam=lam, keyword_masks=masks)


class TestCorrectness:
    @pytest.mark.parametrize("index", ["srt", "ir2"])
    def test_matches_brute_force(
        self, request, objects, feature_sets, index
    ):
        processor = request.getfixturevalue(f"{index}_processor")
        rng = random.Random(29)
        for _ in range(5):
            query = _q((random_mask(rng), random_mask(rng)))
            got = stps(processor.object_tree, processor.feature_trees, query)
            want = brute_force(objects, feature_sets, query)
            assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_tiny_radius_zero_scores(self, srt_processor, objects, feature_sets):
        """Radius so small that every score is 0: the virtual path."""
        query = _q((0b1, 0b1), radius=1e-7, k=4)
        got = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        assert len(got) == 4
        assert got.scores == [0.0] * 4

    def test_sparse_keywords_reach_score_zero_tail(
        self, srt_processor, objects, feature_sets, monkeypatch
    ):
        """Fewer than k objects score above 0, so the all-virtual
        combination fills the rest: lowest unseen ids, cut at k, read off
        the leaf columns without an entry object per data object."""
        query = _q((1 << 7, 1 << 19), k=120, radius=0.05)
        want = brute_force(objects, feature_sets, query)
        positive = sum(score > 0.0 for score in want.scores)
        assert 0 < positive < query.k < len(objects)
        tree = srt_processor.object_tree

        def no_entries(self):
            raise AssertionError("the score-0 tail materialised entries")

        monkeypatch.setattr(type(tree), "all_entries", no_entries)
        monkeypatch.setattr(type(tree), "iter_leaf_entries", no_entries)
        got = stps(tree, srt_processor.feature_trees, query)
        assert got.oids == want.oids
        assert got.scores == pytest.approx(want.scores, abs=1e-9)
        tail = got.oids[positive:]
        assert tail == sorted(tail) and len(got) == query.k

    def test_huge_radius(self, srt_processor, objects, feature_sets):
        query = _q((0b110, 0b11), radius=2.0)
        got = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_k_exceeds_objects(self, srt_processor, objects):
        query = _q((0b1, 0b1), k=100_000)
        got = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        assert len(got) == len(objects)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_extreme_lambda(self, srt_processor, objects, feature_sets, lam):
        query = PreferenceQuery(
            k=5, radius=0.08, lam=lam, keyword_masks=(0b101, 0b110)
        )
        got = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)


class TestBehaviour:
    def test_results_sorted(self, srt_processor):
        query = _q((0b111, 0b111), k=20)
        result = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        assert result.scores == sorted(result.scores, reverse=True)

    def test_no_duplicate_objects(self, srt_processor):
        query = _q((0b111, 0b111), k=50)
        result = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        assert len(set(result.oids)) == len(result.oids)

    def test_stats_counters(self, srt_processor):
        query = _q((0b11, 0b11))
        result = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        assert result.stats.combinations >= 1
        assert result.stats.features_pulled >= 1

    def test_early_termination_touches_few_objects(self, srt_processor, objects):
        """STPS must not score the whole dataset for small k."""
        query = _q((0b111111, 0b111111), k=1, radius=0.2)
        result = stps(srt_processor.object_tree, srt_processor.feature_trees, query)
        assert result.stats.objects_scored < len(objects) / 2
