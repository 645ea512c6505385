"""Tests for query construction and validation."""

import pytest

from repro.core.query import PreferenceQuery, Variant
from repro.errors import QueryError
from repro.model.dataset import FeatureDataset
from repro.model.objects import FeatureObject
from repro.text.vocabulary import Vocabulary


def valid_query(**overrides):
    base = dict(k=10, radius=0.05, lam=0.5, keyword_masks=(0b11, 0b100))
    base.update(overrides)
    return PreferenceQuery(**base)


class TestValidation:
    def test_valid(self):
        q = valid_query()
        assert q.c == 2
        assert q.variant is Variant.RANGE

    @pytest.mark.parametrize("k", [-1, -3])
    def test_bad_k(self, k):
        with pytest.raises(QueryError):
            valid_query(k=k)

    def test_k_zero_is_legal(self):
        # k=0 is a valid degenerate request (empty top-k); the serving
        # layer must answer it, not 500 on it.
        assert valid_query(k=0).k == 0

    @pytest.mark.parametrize(
        "radius", [0.0, -0.1, float("nan"), float("inf")]
    )
    def test_bad_radius(self, radius):
        with pytest.raises(QueryError):
            valid_query(radius=radius)

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_bad_lambda(self, lam):
        with pytest.raises(QueryError):
            valid_query(lam=lam)

    def test_boundary_lambda_ok(self):
        valid_query(lam=0.0)
        valid_query(lam=1.0)

    def test_no_feature_sets(self):
        with pytest.raises(QueryError):
            valid_query(keyword_masks=())

    def test_empty_keyword_set_rejected(self):
        with pytest.raises(QueryError):
            valid_query(keyword_masks=(0b11, 0))

    def test_negative_mask_rejected(self):
        with pytest.raises(QueryError):
            valid_query(keyword_masks=(-1,))


class TestFromTerms:
    @pytest.fixture
    def restaurants(self):
        vocab = Vocabulary(["pizza", "italian", "sushi"])
        return FeatureDataset(
            [FeatureObject(0, 0.1, 0.1, 0.5, frozenset({0}))], vocab, "r"
        )

    def test_resolution(self, restaurants):
        q = PreferenceQuery.from_terms(
            5, 0.01, 0.5, [["pizza", "italian"]], [restaurants]
        )
        assert q.keyword_masks == (0b11,)

    def test_unknown_terms_dropped(self, restaurants):
        q = PreferenceQuery.from_terms(
            5, 0.01, 0.5, [["pizza", "burgers"]], [restaurants]
        )
        assert q.keyword_masks == (0b1,)

    def test_all_unknown_rejected(self, restaurants):
        with pytest.raises(QueryError):
            PreferenceQuery.from_terms(
                5, 0.01, 0.5, [["burgers", "tacos"]], [restaurants]
            )

    def test_count_mismatch(self, restaurants):
        with pytest.raises(QueryError):
            PreferenceQuery.from_terms(
                5, 0.01, 0.5, [["pizza"], ["pizza"]], [restaurants]
            )

    def test_variant_passthrough(self, restaurants):
        q = PreferenceQuery.from_terms(
            5, 0.01, 0.5, [["pizza"]], [restaurants], Variant.NEAREST
        )
        assert q.variant is Variant.NEAREST


class TestWithVariant:
    def test_copy_changes_only_variant(self):
        q = valid_query()
        q2 = q.with_variant(Variant.INFLUENCE)
        assert q2.variant is Variant.INFLUENCE
        assert (q2.k, q2.radius, q2.lam, q2.keyword_masks) == (
            q.k,
            q.radius,
            q.lam,
            q.keyword_masks,
        )
