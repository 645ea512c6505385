"""Tests for STDS (Algorithms 1-2) and its batched/variant forms."""

import random

import pytest

from repro.core.bruteforce import brute_force, component_score
from repro.core.query import PreferenceQuery, Variant
from repro.core.stds import compute_score, compute_scores_batch, stds
from repro.core.processor import QueryProcessor
from repro.errors import QueryError
from repro.model.dataset import FeatureDataset, ObjectDataset
from tests.conftest import make_data_objects, make_feature_objects, random_mask


def _q(masks, variant=Variant.RANGE, k=5, radius=0.08, lam=0.5):
    return PreferenceQuery(
        k=k, radius=radius, lam=lam, keyword_masks=masks, variant=variant
    )


class TestComputeScore:
    """Algorithm 2 against the per-definition oracle, per variant."""

    @pytest.mark.parametrize(
        "variant", [Variant.RANGE, Variant.INFLUENCE, Variant.NEAREST]
    )
    def test_matches_definition(self, srt_processor, feature_sets, variant):
        rng = random.Random(17)
        tree = srt_processor.feature_trees[0]
        for _ in range(8):
            mask = random_mask(rng)
            point = (rng.random(), rng.random())
            query = _q((mask, mask), variant=variant)
            got = compute_score(tree, query, mask, point)
            want = component_score(
                point[0], point[1], feature_sets[0], mask, query
            )
            assert got == want

    def test_empty_tree_scores_zero(self, feature_sets):
        from repro.index.srt import SRTIndex
        from repro.model.dataset import FeatureDataset

        empty = SRTIndex.build(
            FeatureDataset([], feature_sets[0].vocabulary, "e")
        )
        for variant in Variant:
            query = _q((1, 1), variant=variant)
            assert compute_score(empty, query, 1, (0.5, 0.5)) == 0.0


class TestBatch:
    def test_batch_matches_single(self, srt_processor, objects):
        rng = random.Random(19)
        tree = srt_processor.feature_trees[0]
        mask = random_mask(rng)
        query = _q((mask, mask))
        pending = {o.oid: (o.x, o.y) for o in list(objects)[:60]}
        batch_scores = compute_scores_batch(tree, query, mask, dict(pending))
        for oid, (x, y) in pending.items():
            single = compute_score(tree, query, mask, (x, y))
            assert batch_scores[oid] == pytest.approx(single, abs=1e-9)

    def test_empty_pending(self, srt_processor):
        tree = srt_processor.feature_trees[0]
        assert compute_scores_batch(tree, _q((1, 1)), 1, {}) == {}


class TestFullSTDS:
    @pytest.mark.parametrize(
        "variant", [Variant.RANGE, Variant.INFLUENCE, Variant.NEAREST]
    )
    def test_matches_brute_force(
        self, srt_processor, objects, feature_sets, variant
    ):
        rng = random.Random(23)
        for _ in range(3):
            masks = (random_mask(rng), random_mask(rng))
            query = _q(masks, variant=variant)
            got = stds(
                srt_processor.object_tree, srt_processor.feature_trees, query
            )
            want = brute_force(objects, feature_sets, query)
            assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_small_batch_size_still_correct(
        self, srt_processor, objects, feature_sets
    ):
        query = _q((0b110, 0b1010))
        got = stds(
            srt_processor.object_tree,
            srt_processor.feature_trees,
            query,
            batch_size=7,
        )
        want = brute_force(objects, feature_sets, query)
        assert got.scores == pytest.approx(want.scores, abs=1e-9)

    def test_k_larger_than_dataset(self, srt_processor, objects, feature_sets):
        query = _q((0b1, 0b1), k=10_000)
        got = stds(
            srt_processor.object_tree, srt_processor.feature_trees, query
        )
        assert len(got) == len(objects)

    def test_stats_populated(self, srt_processor):
        query = _q((0b11, 0b11))
        result = stds(
            srt_processor.object_tree, srt_processor.feature_trees, query
        )
        assert result.stats.objects_scored > 0
        assert result.stats.wall_s > 0

    def test_feature_set_mismatch(self, srt_processor):
        query = _q((1,))
        with pytest.raises(QueryError):
            stds(srt_processor.object_tree, srt_processor.feature_trees, query)


class TestPinnedWork:
    """The batched scan's *work* is pinned to the constants measured at
    the commit before it started deciding at push time (PR 17, 5f65027):
    which nodes it expands, per feature set, is part of the contract.

    Two counters moved with that change, and only these.  ``heap_pops``
    fell by the entries now pruned against the pending set's bounding box
    when their parent opens — 98 (c = 2) / 154 (c = 3) of them, of which
    the old scan had popped 94 / 150 just to reject them.  EXPLAIN
    ``nodes_pruned`` rose by 3: the other 4 push-time prunes are counted
    when decided although the old scan ended before reaching them, minus
    the one entry the old scan popped and rejected against an already
    empty grid in the iteration where the new one breaks.
    """

    MASKS = (0b1011, 0b110100, 0b11000001)
    # c -> (nodes_expanded, per-set node_visited, heap_pops then -> now,
    #       per-set nodes_pruned then -> now)
    PINNED = {
        2: (167, [102, 65], 530, 436, [60, 56], [60, 59]),
        3: (288, [102, 92, 94], 970, 820, [60, 54, 64], [60, 54, 67]),
    }

    @pytest.mark.parametrize("c", [2, 3])
    def test_expansions_are_the_parents(self, vocab, c):
        objects = ObjectDataset(make_data_objects(400, seed=31))
        feature_sets = [
            FeatureDataset(
                make_feature_objects(300, seed=40 + j), vocab, f"s{j}"
            )
            for j in range(c)
        ]
        processor = QueryProcessor.build(
            objects, feature_sets, index="srt", page_size=512
        )
        assert [t.height for t in processor.feature_trees] == [3] * c
        query = _q(self.MASKS[:c], radius=0.05)
        stats = stds(
            processor.object_tree, processor.feature_trees, query,
            batch_size=64,
        ).stats
        expanded, visited, pops_then, pops_now, pruned_then, pruned_now = (
            self.PINNED[c]
        )
        sets = stats.feature_sets
        assert stats.nodes_expanded == expanded == sum(visited)
        assert [fs.nodes_visited for fs in sets] == visited
        assert stats.heap_pops == pops_now == pops_then - {2: 94, 3: 150}[c]
        assert [fs.nodes_pruned for fs in sets] == pruned_now
        assert sum(pruned_now) == sum(pruned_then) + 4 - 1
