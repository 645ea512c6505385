"""Differential harness: every engine against the brute-force oracle.

For a seeded grid of datasets and query shapes, the index-backed
algorithms (STPS, STDS) must return *exactly* the oracle's answer —
same object ids in the same order, scores within ``1e-9`` — under the
library-wide deterministic tie-break (score desc, oid asc).  The grid
yields 216 generated cases per score variant (2 datasets × 3 λ × 2 radii
× 3 k × 6 keyword seeds), plus corner cases: ``k >= |O|``, empty keyword
sets, and keyword masks that no feature can satisfy.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bruteforce import brute_force
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.errors import QueryError
from repro.model.dataset import FeatureDataset, ObjectDataset
from tests.conftest import make_data_objects, make_feature_objects

from repro.text.vocabulary import Vocabulary

N_OBJECTS = 100
N_FEATURES = 80
#: Features only use terms below this bit; higher bits are provably
#: unsatisfiable (the "no valid combination" corner).
USED_VOCAB = 24
VOCAB = Vocabulary(f"kw{i}" for i in range(32))

DATASET_SEEDS = (11, 23)
LAMBDAS = (0.0, 0.5, 1.0)
RADII = (0.02, 0.08)
KS = (1, 7, N_OBJECTS + 5)  # includes k >= |O|
KEYWORD_SEEDS = (0, 1, 2, 3, 4, 5)
SCORE_TOL = 1e-9


@pytest.fixture(scope="module")
def corpus():
    """seed -> (objects, feature_sets, processor) — built once."""
    built = {}
    for seed in DATASET_SEEDS:
        objects = ObjectDataset(make_data_objects(N_OBJECTS, seed=seed))
        feature_sets = [
            FeatureDataset(
                make_feature_objects(
                    N_FEATURES, seed=seed * 100 + j, vocab_size=USED_VOCAB
                ),
                VOCAB,
                f"set{j}",
            )
            for j in range(2)
        ]
        built[seed] = (
            objects,
            feature_sets,
            QueryProcessor.build(objects, feature_sets),
        )
    return built


def _mask(rng: random.Random, terms: int = 3) -> int:
    mask = 0
    for t in rng.sample(range(USED_VOCAB), terms):
        mask |= 1 << t
    return mask


def _queries(variant: Variant, lam: float, radius: float, k: int):
    """The per-(variant, λ, r, k) slice of the seeded keyword grid."""
    for kw_seed in KEYWORD_SEEDS:
        rng = random.Random(1000 * kw_seed + k)
        yield PreferenceQuery(
            k, radius, lam, (_mask(rng), _mask(rng)), variant
        )


def _items(result):
    return [(item.oid, item.score) for item in result.items]


def _assert_matches(oracle, got, label: str, query: PreferenceQuery):
    assert len(got) == len(oracle), (
        f"{label}: {len(got)} items, oracle has {len(oracle)} ({query})"
    )
    for rank, ((exp_oid, exp_score), (got_oid, got_score)) in enumerate(
        zip(oracle, got)
    ):
        assert got_oid == exp_oid, (
            f"{label}: rank {rank} oid {got_oid} != {exp_oid} ({query})"
        )
        assert abs(got_score - exp_score) <= SCORE_TOL, (
            f"{label}: rank {rank} score {got_score} != {exp_score} "
            f"({query})"
        )


GRID = [
    pytest.param(seed, lam, radius, k, id=f"d{seed}-l{lam}-r{radius}-k{k}")
    for seed in DATASET_SEEDS
    for lam in LAMBDAS
    for radius in RADII
    for k in KS
]


@pytest.mark.parametrize(("seed", "lam", "radius", "k"), GRID)
class TestOracleGrid:
    """STPS == STDS == brute force, ids and scores."""

    def test_range(self, corpus, seed, lam, radius, k):
        objects, feature_sets, processor = corpus[seed]
        for query in _queries(Variant.RANGE, lam, radius, k):
            oracle = _items(brute_force(objects, feature_sets, query))
            _assert_matches(
                oracle, _items(processor.query(query)), "stps", query
            )
            _assert_matches(
                oracle,
                _items(processor.query(query, algorithm="stds")),
                "stds",
                query,
            )

    def test_influence(self, corpus, seed, lam, radius, k):
        objects, feature_sets, processor = corpus[seed]
        for query in _queries(Variant.INFLUENCE, lam, radius, k):
            oracle = _items(brute_force(objects, feature_sets, query))
            _assert_matches(
                oracle, _items(processor.query(query)), "stps", query
            )

    def test_nearest(self, corpus, seed, lam, radius, k):
        objects, feature_sets, processor = corpus[seed]
        for query in _queries(Variant.NEAREST, lam, radius, k):
            oracle = _items(brute_force(objects, feature_sets, query))
            _assert_matches(
                oracle, _items(processor.query(query)), "stps", query
            )


class TestCorners:
    """Degenerate query shapes every engine must agree on."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_k_exceeds_dataset(self, corpus, variant):
        """k >= |O| returns the whole dataset, fully ranked."""
        seed = DATASET_SEEDS[0]
        objects, feature_sets, processor = corpus[seed]
        query = PreferenceQuery(
            N_OBJECTS + 7, 0.05, 0.5, (0b111, 0b111), variant
        )
        oracle = _items(brute_force(objects, feature_sets, query))
        assert len(oracle) == N_OBJECTS
        _assert_matches(
            oracle, _items(processor.query(query)), "stps", query
        )
        if variant is Variant.RANGE:
            _assert_matches(
                oracle,
                _items(processor.query(query, algorithm="stds")),
                "stds",
                query,
            )

    def test_empty_keyword_set_rejected(self):
        """An empty keyword set is a malformed query (Definition 2)."""
        with pytest.raises(QueryError):
            PreferenceQuery(5, 0.05, 0.5, (0, 0b1))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_unsatisfiable_keywords(self, corpus, variant):
        """Keywords no feature carries: everything scores exactly 0.

        The engines must still fill k slots deterministically (lowest
        oids first) — the all-virtual-combination tail of Section 6.1.
        """
        seed = DATASET_SEEDS[0]
        objects, feature_sets, processor = corpus[seed]
        dead_mask = 1 << (USED_VOCAB + 2)  # bit no feature ever uses
        query = PreferenceQuery(
            6, 0.05, 0.5, (dead_mask, dead_mask), variant
        )
        oracle = _items(brute_force(objects, feature_sets, query))
        assert [score for _, score in oracle] == [0.0] * 6
        assert [oid for oid, _ in oracle] == list(range(6))
        _assert_matches(
            oracle, _items(processor.query(query)), "stps", query
        )
        if variant is Variant.RANGE:
            _assert_matches(
                oracle,
                _items(processor.query(query, algorithm="stds")),
                "stds",
                query,
            )

    def test_grid_size(self):
        """The seeded grid really generates >= 200 cases per variant."""
        assert (
            len(DATASET_SEEDS)
            * len(LAMBDAS)
            * len(RADII)
            * len(KS)
            * len(KEYWORD_SEEDS)
            >= 200
        )
