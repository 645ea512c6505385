"""Degenerate-input regressions: ``k=0`` and empty datasets.

``PreferenceQuery`` historically required ``k >= 1`` and the engines
assumed a non-empty top-k heap (``collected[k - 1]``,
the fan-out's merged floor), so a ``k=0`` request — a natural "give me
nothing, but validate everything" probe from the serving layer — either
raised or underflowed.  The contract pinned here: ``k=0`` returns an
empty, (vacuously) tie-complete result through every engine in every
execution mode, and empty datasets answer normally instead of crashing.
"""

from __future__ import annotations

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.errors import QueryError
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.shard.sharded_processor import ShardedQueryProcessor
from repro.text.vocabulary import Vocabulary

from tests.conftest import make_data_objects, make_feature_objects

VOCAB = Vocabulary(f"kw{i}" for i in range(16))
ALL_MASKS = (0xFFFF, 0xFFFF)

#: Shards are built with this halo radius; queries stay under it so the
#: same query runs unchanged against halo-replicated shards.
BUILD_RADIUS = 0.05
QUERY_RADIUS = 0.04


def small_world() -> tuple[ObjectDataset, list[FeatureDataset]]:
    objects = ObjectDataset(make_data_objects(60, seed=71))
    feature_sets = [
        FeatureDataset(
            make_feature_objects(40, seed=72 + j, vocab_size=len(VOCAB)),
            VOCAB,
            f"set{j}",
        )
        for j in range(2)
    ]
    return objects, feature_sets


def query(k: int, variant: Variant = Variant.RANGE) -> PreferenceQuery:
    return PreferenceQuery(k, QUERY_RADIUS, 0.5, ALL_MASKS, variant)


#: (algorithm, variant) pairs every engine test sweeps: both engines
#: serve all three variants (Section 7).
ENGINES = [
    (algorithm, variant)
    for algorithm in ("stps", "stds")
    for variant in Variant
]


@pytest.fixture(scope="module")
def world():
    return small_world()


@pytest.fixture(scope="module")
def processor(world):
    return QueryProcessor.build(*world)


class TestQueryValidation:
    def test_k_zero_is_legal(self):
        assert query(0).k == 0

    def test_negative_k_still_rejected(self):
        with pytest.raises(QueryError, match="k must be >= 0"):
            PreferenceQuery(-1, QUERY_RADIUS, 0.5, ALL_MASKS)


class TestSingleNodeKZero:
    @pytest.mark.parametrize("algorithm,variant", ENGINES)
    def test_k_zero_returns_empty(self, processor, algorithm, variant):
        result = processor.query(query(0, variant), algorithm=algorithm)
        assert result.items == []

    @pytest.mark.parametrize("algorithm,variant", ENGINES)
    def test_k_zero_then_real_query_still_works(
        self, processor, algorithm, variant
    ):
        processor.query(query(0, variant), algorithm=algorithm)
        result = processor.query(query(3, variant), algorithm=algorithm)
        assert len(result.items) <= 3

    def test_unknown_algorithm_still_rejected_for_k_zero(self, processor):
        # The short-circuit must not swallow dispatch validation.
        with pytest.raises(QueryError, match="unknown algorithm"):
            processor.query(query(0), algorithm="nope")


class TestShardedKZero:
    def test_k_zero_returns_empty(self, world):
        with ShardedQueryProcessor.build(
            *world, shards=2, radius=BUILD_RADIUS
        ) as sharded:
            result = sharded.query(query(0))
            assert result.items == []
            assert result.stats.trace_id  # still stamped for correlation
            follow_up = sharded.query(query(3))
            assert len(follow_up.items) <= 3

    @pytest.mark.parametrize("algorithm,variant", ENGINES)
    def test_k_zero_all_engines_full_replication(
        self, world, algorithm, variant
    ):
        # Full replication serves every variant, so the whole engine
        # sweep runs against the sharded fan-out too.
        with ShardedQueryProcessor.build(
            *world, shards=2, replication="full"
        ) as sharded:
            result = sharded.query(query(0, variant), algorithm=algorithm)
            assert result.items == []


class TestEmptyDatasets:
    @pytest.fixture(scope="class")
    def empty_world(self, world):
        _, feature_sets = world
        return ObjectDataset([]), feature_sets

    @pytest.mark.parametrize("algorithm,variant", ENGINES)
    def test_no_objects_single_node(self, empty_world, algorithm, variant):
        processor = QueryProcessor.build(*empty_world)
        result = processor.query(query(5, variant), algorithm=algorithm)
        assert result.items == []

    def test_no_objects_sharded(self, empty_world):
        with ShardedQueryProcessor.build(
            *empty_world, shards=2, radius=BUILD_RADIUS
        ) as sharded:
            assert sharded.query(query(5)).items == []

    def test_empty_feature_sets_score_zero(self, world):
        objects, _ = world
        feature_sets = [
            FeatureDataset([], VOCAB, "emptyA"),
            FeatureDataset([], VOCAB, "emptyB"),
        ]
        processor = QueryProcessor.build(objects, feature_sets)
        result = processor.query(query(5))
        # No features anywhere: every object scores 0; top-k still ranks.
        assert len(result.items) == 5
        assert all(item.score == 0.0 for item in result.items)

    def test_no_objects_and_k_zero(self, empty_world):
        processor = QueryProcessor.build(*empty_world)
        assert processor.query(query(0)).items == []
