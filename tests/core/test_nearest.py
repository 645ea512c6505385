"""Tests for the nearest-neighbor STPS variant (Section 7.2)."""

import random

import pytest

from repro.core.bruteforce import brute_force
from repro.core.stps import stps_nearest
from repro.core.query import PreferenceQuery, Variant
from repro.errors import QueryError
from tests.conftest import random_mask


def _q(masks, k=5, radius=0.08, lam=0.5):
    return PreferenceQuery(
        k=k,
        radius=radius,
        lam=lam,
        keyword_masks=masks,
        variant=Variant.NEAREST,
    )


class TestCorrectness:
    @pytest.mark.parametrize("index", ["srt", "ir2"])
    def test_matches_brute_force(self, request, objects, feature_sets, index):
        processor = request.getfixturevalue(f"{index}_processor")
        rng = random.Random(37)
        for _ in range(4):
            query = _q((random_mask(rng), random_mask(rng)))
            got = stps_nearest(
                processor.object_tree, processor.feature_trees, query
            )
            want = brute_force(objects, feature_sets, query)
            assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_lambda_zero(self, srt_processor, objects, feature_sets):
        query = _q((0b1100, 0b0011), lam=0.0)
        got = stps_nearest(
            srt_processor.object_tree, srt_processor.feature_trees, query
        )
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_rare_keywords(self, srt_processor, objects, feature_sets):
        query = _q((1 << 31, 1 << 30))
        got = stps_nearest(
            srt_processor.object_tree, srt_processor.feature_trees, query
        )
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_larger_k(self, srt_processor, objects, feature_sets):
        query = _q((0b111, 0b111), k=40)
        got = stps_nearest(
            srt_processor.object_tree, srt_processor.feature_trees, query
        )
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)


class TestBehaviour:
    def test_no_duplicates(self, srt_processor):
        query = _q((0b111, 0b111), k=30)
        result = stps_nearest(
            srt_processor.object_tree, srt_processor.feature_trees, query
        )
        assert len(set(result.oids)) == len(result.oids)

    def test_voronoi_cost_tracked(self, srt_processor):
        query = _q((0b111, 0b111))
        result = stps_nearest(
            srt_processor.object_tree, srt_processor.feature_trees, query
        )
        assert result.stats.voronoi_cpu_s > 0.0
        logical = result.stats.io_reads + result.stats.buffer_hits
        assert logical > 0

    def test_wrong_variant_rejected(self, srt_processor):
        query = PreferenceQuery(k=5, radius=0.1, lam=0.5, keyword_masks=(1, 1))
        with pytest.raises(QueryError):
            stps_nearest(
                srt_processor.object_tree, srt_processor.feature_trees, query
            )
