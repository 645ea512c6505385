"""Cross-algorithm consistency: brute force ≡ STDS ≡ STPS.

The central correctness instrument of the reproduction: for randomized
datasets and queries, every algorithm (STDS, STPS) on every index (SRT,
IR²) must return the same ranked score vector as the per-definition brute
force, for all three score variants.
"""

import random

import pytest

from repro.core.bruteforce import brute_force
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.text.vocabulary import Vocabulary
from tests.conftest import (
    VOCAB_SIZE,
    make_data_objects,
    make_feature_objects,
    random_mask,
)

ALL_VARIANTS = [Variant.RANGE, Variant.INFLUENCE, Variant.NEAREST]


def build_world(seed, n_objects=200, n_features=120, c=2):
    vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
    objects = ObjectDataset(make_data_objects(n_objects, seed))
    feature_sets = [
        FeatureDataset(
            make_feature_objects(n_features, seed + 100 * (i + 1)),
            vocab,
            f"F{i}",
        )
        for i in range(c)
    ]
    processors = {
        index: QueryProcessor.build(objects, feature_sets, index=index)
        for index in ("srt", "ir2")
    }
    return objects, feature_sets, processors


def assert_scores_equal(got, want, context):
    assert len(got) == len(want), context
    assert got == pytest.approx(want, abs=1e-9), context


@pytest.fixture(scope="module")
def world():
    return build_world(seed=500)


class TestRandomizedMatrix:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("trial", range(4))
    def test_all_agree(self, world, variant, trial):
        objects, feature_sets, processors = world
        rng = random.Random(1000 * trial + hash(variant.value) % 97)
        query = PreferenceQuery(
            k=rng.choice([1, 5, 12]),
            radius=rng.choice([0.03, 0.08, 0.15]),
            lam=rng.choice([0.2, 0.5, 0.8]),
            keyword_masks=(random_mask(rng), random_mask(rng)),
            variant=variant,
        )
        want = brute_force(objects, feature_sets, query).scores
        for index, processor in processors.items():
            for algorithm in ("stds", "stps"):
                got = processor.query(query, algorithm=algorithm).scores
                assert_scores_equal(
                    got, want, f"{variant.value}/{index}/{algorithm}"
                )


class TestThreeFeatureSets:
    def test_c3_all_variants(self):
        objects, feature_sets, processors = build_world(
            seed=900, n_objects=150, n_features=80, c=3
        )
        rng = random.Random(7)
        masks = tuple(random_mask(rng, 2) for _ in range(3))
        for variant in ALL_VARIANTS:
            query = PreferenceQuery(
                k=5,
                radius=0.1,
                lam=0.5,
                keyword_masks=masks,
                variant=variant,
            )
            want = brute_force(objects, feature_sets, query).scores
            for index, processor in processors.items():
                got = processor.query(query).scores
                assert_scores_equal(got, want, f"c3/{variant.value}/{index}")


class TestSingleFeatureSet:
    def test_c1_all_variants(self):
        objects, feature_sets, processors = build_world(
            seed=901, n_objects=150, n_features=100, c=1
        )
        rng = random.Random(8)
        for variant in ALL_VARIANTS:
            query = PreferenceQuery(
                k=6,
                radius=0.07,
                lam=0.4,
                keyword_masks=(random_mask(rng),),
                variant=variant,
            )
            want = brute_force(objects, feature_sets, query).scores
            for processor in processors.values():
                got = processor.query(query).scores
                assert_scores_equal(got, want, variant.value)


class TestDegenerateWorlds:
    def test_no_relevant_features_anywhere(self, world):
        """Query keywords absent from the data: every score is 0."""
        objects, feature_sets, processors = world
        # VOCAB_SIZE-1 bits beyond any generated keyword would be invalid;
        # instead use a mask of terms that exist but co-occur nowhere.
        query = PreferenceQuery(
            k=3,
            radius=1e-9,
            lam=0.5,
            keyword_masks=(1, 1),
        )
        want = brute_force(objects, feature_sets, query).scores
        assert want == [0.0, 0.0, 0.0]
        for processor in processors.values():
            for algorithm in ("stds", "stps"):
                got = processor.query(query, algorithm=algorithm).scores
                assert got == want

    @pytest.mark.parametrize(
        "reverse", [False, True], ids=["low_first", "high_first"]
    )
    def test_nearest_distance_tie_goes_to_the_higher_score(self, reverse):
        """Object 1 is equidistant from two relevant features; Definition
        7's tie rule (the brute force's, and STPS's) takes the better one,
        whichever was inserted first."""
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        features = [
            FeatureObject(0, 0.4, 0.5, 0.2, frozenset({0})),
            FeatureObject(1, 0.6, 0.5, 0.9, frozenset({0})),
        ]
        if reverse:
            features.reverse()
        objects = ObjectDataset(
            [DataObject(1, 0.5, 0.5), DataObject(2, 0.1, 0.1)]
        )
        feature_sets = [FeatureDataset(features, vocab, "F")]
        query = PreferenceQuery(
            k=2, radius=0.2, lam=0.0, keyword_masks=(1,),
            variant=Variant.NEAREST,
        )
        want = brute_force(objects, feature_sets, query).items
        want = [(i.oid, i.score) for i in want]
        assert want == [(1, 0.9), (2, 0.2)]
        for index in ("srt", "ir2"):
            processor = QueryProcessor.build(
                objects, feature_sets, index=index
            )
            for algorithm in ("stds", "stps"):
                got = processor.query(query, algorithm=algorithm)
                assert [(i.oid, i.score) for i in got.items] == want, (
                    index, algorithm
                )

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_objects_outside_the_unit_square(self, variant):
        """Objects may lie anywhere, so the NN variant's Voronoi cells
        must cover every object, not just the unit square."""
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        objects = ObjectDataset(
            [
                DataObject(1, 0.5, 0.5),
                DataObject(2, 1.5, 0.5),
                DataObject(3, 0.2, -0.3),
            ]
        )
        feature_sets = [
            FeatureDataset(
                [
                    FeatureObject(10, 1.4, 0.5, 0.9, frozenset({0})),
                    FeatureObject(11, 0.3, 0.3, 0.2, frozenset({0})),
                ],
                vocab,
                "F",
            )
        ]
        query = PreferenceQuery(
            k=3, radius=0.3, lam=0.5, keyword_masks=(1,), variant=variant
        )
        want = brute_force(objects, feature_sets, query).items
        if variant is Variant.NEAREST:
            assert [i.oid for i in want] == [2, 1, 3]
            assert [i.score for i in want] == pytest.approx([0.95, 0.6, 0.6])
        for index in ("srt", "ir2"):
            processor = QueryProcessor.build(
                objects, feature_sets, index=index
            )
            for algorithm in ("stds", "stps"):
                got = processor.query(query, algorithm=algorithm).items
                context = (index, algorithm)
                assert [i.oid for i in got] == [i.oid for i in want], context
                assert_scores_equal(
                    [i.score for i in got], [i.score for i in want], context
                )

    def test_empty_object_dataset(self):
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        objects = ObjectDataset([])
        feature_sets = [
            FeatureDataset(make_feature_objects(50, 3), vocab, "F")
        ]
        processor = QueryProcessor.build(objects, feature_sets)
        query = PreferenceQuery(k=5, radius=0.1, lam=0.5, keyword_masks=(1,))
        for algorithm in ("stds", "stps"):
            assert processor.query(query, algorithm=algorithm).scores == []

    def test_empty_feature_dataset(self):
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        objects = ObjectDataset(make_data_objects(30, 4))
        feature_sets = [FeatureDataset([], vocab, "empty")]
        processor = QueryProcessor.build(objects, feature_sets)
        for variant in ALL_VARIANTS:
            query = PreferenceQuery(
                k=4, radius=0.1, lam=0.5, keyword_masks=(1,), variant=variant
            )
            result = processor.query(query)
            assert result.scores == [0.0] * 4
