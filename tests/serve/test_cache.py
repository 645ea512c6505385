"""Result-cache tests: LRU/epoch mechanics over a live dataset's version,
the live-coherence differential — a mutation that changes a cached query's answer must
never be served stale (verified against brute force at 1e-9) — and one
hand-built kill test per rule of ``repro.core.coherence``: a world in
which serving the entry without that rule's guard is a wrong top-k.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
import threading
import weakref

import pytest

from repro.core.bruteforce import brute_force
from repro.core.executor import QueryExecutor
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult
from repro.errors import ReproError
from repro.live import DELTA_LOG, LiveDataset
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.obs import metrics as _metrics
from repro.serve.cache import ResultCache, query_signature
from repro.serve.service import QueryService, ServeConfig
from repro.text.vocabulary import Vocabulary

from tests.live.conftest import MutationStream, live_world

QUERY = PreferenceQuery(3, 0.35, 0.5, (0xFFFF, 0xFFFF), Variant.RANGE)


def _result(marker: float) -> QueryResult:
    result = QueryResult()
    result.stats.wall_s = marker  # distinguishable payloads
    return result


class TestSignature:
    def test_tenant_never_enters_the_key(self):
        # The signature is a pure function of (query, algorithm):
        # two tenants sharing a query share a cache entry by construction.
        a = query_signature(QUERY, "stps")
        b = query_signature(QUERY, "stps")
        assert a == b

    def test_answer_changing_fields_split_the_key(self):
        base = query_signature(QUERY, "stps")
        assert query_signature(QUERY, "stds") != base
        for changed in (
            PreferenceQuery(4, 0.35, 0.5, (0xFFFF, 0xFFFF)),
            PreferenceQuery(3, 0.36, 0.5, (0xFFFF, 0xFFFF)),
            PreferenceQuery(3, 0.35, 0.6, (0xFFFF, 0xFFFF)),
            PreferenceQuery(3, 0.35, 0.5, (0xFFFF, 0xFFF0)),
            PreferenceQuery(
                3, 0.35, 0.5, (0xFFFF, 0xFFFF), Variant.INFLUENCE
            ),
        ):
            assert query_signature(changed, "stps") != base


class TestLRU:
    def test_miss_then_hit(self):
        cache = ResultCache()
        key = query_signature(QUERY, "stps")
        assert cache.get(key) is None
        cache.put(key, _result(1.0))
        assert cache.get(key).stats.wall_s == 1.0
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(("a",), _result(1))
        cache.put(("b",), _result(2))
        cache.get(("a",))  # refresh a
        cache.put(("c",), _result(3))  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.evictions == 1

    def test_hit_rate(self):
        cache = ResultCache()
        cache.put(("k",), _result(1))
        cache.get(("k",))
        cache.get(("k",))
        cache.get(("other",))
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ReproError, match="max_entries"):
            ResultCache(max_entries=0)

    def test_clear(self):
        cache = ResultCache()
        cache.put(("k",), _result(1))
        assert cache.clear() == 1
        assert len(cache) == 0


def small_live() -> LiveDataset:
    objects, feature_sets = live_world(n_objects=40, n_features=30, seed=9)
    return LiveDataset.build(
        objects, feature_sets, page_size=512, buffer_pages=32
    )


_fresh_fids = itertools.count(999_100)


def bump(live) -> None:
    """One write: the dataset's version, and so the cache epoch, moves."""
    live.insert_feature(
        0, FeatureObject(next(_fresh_fids), 0.5, 0.5, 0.9, frozenset({1}))
    )


class TestEpochs:
    """An entry filled without its query cannot be replayed: any write
    behind its stamp makes it stale."""

    @pytest.fixture()
    def cache(self) -> ResultCache:
        return ResultCache(live=small_live())

    def test_bump_invalidates_everything_lazily(self, cache):
        cache.put(("a",), _result(1))
        cache.put(("b",), _result(2))
        bump(cache.live)
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) is None
        assert cache.stale == 2
        assert len(cache) == 0  # stale entries dropped on lookup

    def test_refill_after_bump_serves_again(self, cache):
        cache.put(("a",), _result(1))
        bump(cache.live)
        cache.put(("a",), _result(2))
        assert cache.get(("a",)).stats.wall_s == 2

    def test_fill_computed_before_a_bump_is_dropped(self, cache):
        # A mutation lands between the miss and the fill: the answer was
        # computed on the pre-mutation world and must not be stamped
        # with the post-mutation epoch.
        assert cache.get(("k",)) is None
        epoch = cache.epoch
        bump(cache.live)
        assert cache.epoch == cache.live.version == epoch + 1
        assert cache.put(("k",), _result(1), epoch) is False
        assert cache.get(("k",)) is None and len(cache) == 0
        # The same fill at an unmoved epoch is kept.
        assert cache.put(("k",), _result(2), cache.epoch) is True
        assert cache.get(("k",)).stats.wall_s == 2

    def test_metrics_count_events(self, cache):
        with _metrics.scoped_registry() as reg:
            cache.put(("a",), _result(1))
            cache.get(("a",))
            bump(cache.live)
            cache.get(("a",))
            family = reg.get("repro_serve_cache_total")
            counts = {lv[0]: c.value for lv, c in family.series()}
        assert counts == {"fill": 1, "hit": 1, "stale": 1}


class TestLiveCoherence:
    @pytest.fixture()
    def live(self) -> LiveDataset:
        return small_live()

    def test_mutation_bumps_attached_cache(self, live):
        cache = ResultCache(live=live)
        cache.put(("k",), _result(1))
        live.insert_feature(
            0, FeatureObject(999_001, 0.5, 0.5, 0.9, frozenset({1}))
        )
        assert cache.get(("k",)) is None  # stale, not served

    def test_a_dropped_service_frees_its_cache(self, live):
        # The dataset holds no reference to a cache fronting it: a
        # service dropped without close() takes its cache with it.
        with QueryExecutor(live.processor, max_workers=1) as executor:
            service = QueryService(executor, ServeConfig(), live=live)
            service.handle("t", QUERY)
            cache = weakref.ref(service.cache)
            del service
            gc.collect()
            assert cache() is None
            bump(live)  # and the dataset carries on without it

    def test_served_answers_track_mutations_vs_brute_force(self, live):
        """The coherence differential the satellite demands.

        Serve the same query through a cache-enabled QueryService,
        mutate the live dataset so the answer changes, and require every
        served answer to match brute force over the *current* snapshots
        to 1e-9 — a stale cache entry would fail the comparison.
        """
        query = PreferenceQuery(5, 0.3, 0.5, (0xFFFF, 0xFFFF))

        def expected_scores() -> list[float]:
            return brute_force(
                live.objects_snapshot(), live.feature_snapshots(), query
            ).scores

        with QueryExecutor(live.processor, max_workers=2) as executor:
            service = QueryService(executor, ServeConfig(), live=live)
            for round_no in range(4):
                before = expected_scores()
                first = service.handle("tenant-a", query)
                again = service.handle("tenant-b", query)
                assert first.status == again.status == 200
                assert again.cached  # second lookup hits
                for decision in (first, again):
                    got = decision.result.scores
                    assert got == pytest.approx(before, abs=1e-9)
                # Mutate so the next round's answer differs: drop the
                # current winner and plant a high-scoring feature at a
                # fresh location.
                winner = first.result.items[0]
                live.delete_object(winner.oid)
                live.insert_feature(
                    0,
                    FeatureObject(
                        990_000 + round_no,
                        winner.x,
                        winner.y,
                        0.99,
                        frozenset({round_no % 8}),
                    ),
                )
                assert expected_scores() != pytest.approx(
                    before, abs=1e-9
                )
            assert service.cache.stale >= 3  # each round invalidated
            service.close()


# ----------------------------------------------------------------------
# one kill test per coherence rule (repro.core.coherence, R1-R5)
# ----------------------------------------------------------------------
K0 = frozenset({0})  # the query's keyword, in both sets
VOCAB = Vocabulary(f"kw{i}" for i in range(8))


class HandBuilt:
    """A five-object world scored by hand.  ``λ = 0`` makes ``s(t)`` the
    feature's own score, so with ``r = 0.1``::

        A (1)  0.9 + 0.9 = 1.8      C (3)  0.5 + 0.7 = 1.2
        B (2)  0.8 + 0.8 = 1.6      D (4), E (5): nothing in range, 0

    Feature ``10·oid + set`` is the one object ``oid`` scores from in
    that set; feature 90 is relevant but out of everyone's range, 91 is
    beside C and irrelevant (keyword 5).  Under ``variant`` the same
    world ranks A 1.679 > B 1.493 > C 1.120 (influence) and
    A = E 1.8 > B = D 1.6 > C 1.2 (nearest neighbour).
    """

    SPOTS = {1: (0.2, 0.2), 2: (0.5, 0.5), 3: (0.8, 0.8),
             4: (0.2, 0.8), 5: (0.8, 0.2)}
    SCORES = {1: (0.9, 0.9), 2: (0.8, 0.8), 3: (0.5, 0.7)}

    def __init__(
        self, k: int = 2, oids=(1, 2, 3, 4, 5), variant=Variant.RANGE,
        c: int = 2,
    ) -> None:
        objects = ObjectDataset(
            [DataObject(oid, *self.SPOTS[oid]) for oid in oids]
        )
        sets = []
        for i in range(c):
            features = [
                FeatureObject(10 * oid + i, x + 0.01, y, scores[i], K0)
                for oid, scores in self.SCORES.items()
                for x, y in [self.SPOTS[oid]]
            ]
            if i == 0:
                features.append(FeatureObject(90, 0.5, 0.1, 1.0, K0))
                features.append(
                    FeatureObject(91, 0.8, 0.79, 1.0, frozenset({5}))
                )
            sets.append(FeatureDataset(features, VOCAB, "AB"[i]))
        self.live = LiveDataset.build(
            objects, sets, page_size=512, buffer_pages=16
        )
        self.query = PreferenceQuery(k, 0.1, 0.0, (1,) * c, variant)
        self.key = query_signature(self.query, "stps")
        self.refill()

    def refill(self) -> None:
        """A fresh cache holding the answer over the world as it is now."""
        self.cache = ResultCache(live=self.live)
        self.filled = self.live.query(self.query, algorithm="stps")
        self.cache.put(self.key, self.filled, self.cache.epoch, self.query)

    def ranked(self, result=None) -> list[tuple[int, float]]:
        result = result or self.live.query(self.query, algorithm="stds")
        return [(i.oid, pytest.approx(i.score, abs=1e-9)) for i in result.items]

    def assert_killed(self) -> None:
        """The cached answer is now wrong, and the cache knows."""
        assert self.ranked() != self.ranked(self.filled)
        assert self.cache.get(self.key) is None
        assert (self.cache.stale, self.cache.hits) == (1, 0)

    def assert_survives(self) -> None:
        """The cached answer is still right, and is served by replay."""
        assert self.ranked() == self.ranked(self.filled)
        assert self.cache.get(self.key) is self.filled
        assert self.cache.revalidated == self.cache.hits == 1
        assert self.cache.describe()["revalidated"] == 1
        # Re-stamped: the next lookup compares epochs and replays nothing.
        assert self.cache.get(self.key) is self.filled
        assert (self.cache.revalidated, self.cache.hits) == (1, 2)


class TestCoherenceRules:
    def test_the_world_is_what_the_docstring_says(self):
        w = HandBuilt(k=5)
        assert w.ranked() == [(1, 1.8), (2, 1.6), (3, 1.2), (4, 0), (5, 0)]

    # R1 ---------------------------------------------------------------
    def test_r1_irrelevant_feature_writes_are_invisible(self):
        w = HandBuilt()
        w.live.move_feature(0, 91, 0.5, 0.49)  # beside B now
        w.live.rescore_feature(0, 91, 0.3)
        w.live.delete_feature(0, 91)
        w.live.insert_feature(
            1, FeatureObject(92, 0.2, 0.21, 1.0, frozenset({3, 4}))
        )
        w.assert_survives()

    def test_r1_counts_a_revalidated_hit_as_its_own_event(self):
        with _metrics.scoped_registry() as reg:
            w = HandBuilt()
            w.live.delete_feature(0, 91)
            w.cache.get(w.key)
            w.cache.get(w.key)
            family = reg.get("repro_serve_cache_total")
            counts = {lv[0]: c.value for lv, c in family.series()}
        assert counts == {"fill": 1, "hit": 2, "revalidated": 1}

    # R2 ---------------------------------------------------------------
    def test_r2_deleting_the_feature_a_reported_object_scores_from(self):
        w = HandBuilt()
        w.live.delete_feature(0, 20)  # B: 1.6 -> 0.8, C takes its place
        w.assert_killed()

    def test_r2_down_scoring_it(self):
        w = HandBuilt()
        w.live.rescore_feature(1, 21, 0.1)  # B: 1.6 -> 0.9
        w.assert_killed()

    def test_r2_a_non_member_losing_score_cannot_enter(self):
        w = HandBuilt()
        w.live.delete_feature(0, 30)
        w.live.rescore_feature(1, 31, 0.2)
        w.assert_survives()

    # R3 ---------------------------------------------------------------
    def test_r3_insert_beside_a_non_member_that_overtakes_the_kth(self):
        w = HandBuilt()
        w.live.insert_feature(0, FeatureObject(93, 0.8, 0.81, 1.0, K0))
        w.assert_killed()  # C: 1.2 -> 1.7 > 1.6

    def test_r3_insert_beside_a_member(self):
        w = HandBuilt()
        w.live.insert_feature(0, FeatureObject(93, 0.5, 0.51, 0.85, K0))
        w.assert_killed()  # B: 1.6 -> 1.65, same ids, another score

    def test_r3_a_weak_insert_beside_a_non_member_survives(self):
        w = HandBuilt()
        # 0.55 + (c - 1) < 1.6: whatever it is near stays below B.
        w.live.insert_feature(0, FeatureObject(93, 0.8, 0.81, 0.55, K0))
        w.assert_survives()

    def test_r3_a_strong_insert_with_nobody_in_range_survives(self):
        w = HandBuilt()
        # 1.0 + (c - 1) is not below 1.6, so the rule looks: no object
        # is within r of (0.5, 0.9), and nobody gains.
        w.live.insert_feature(0, FeatureObject(93, 0.5, 0.9, 1.0, K0))
        w.assert_survives()

    def test_r3_a_strong_insert_beside_a_non_member_below_the_kth(self):
        w = HandBuilt()
        w.live.insert_feature(0, FeatureObject(93, 0.8, 0.81, 0.8, K0))
        w.assert_survives()  # C: 1.2 -> 0.8 + 0.7 = 1.5 < 1.6

    def test_r3_an_insert_that_makes_a_non_member_tie_the_kth(self):
        w = HandBuilt()
        w.live.insert_feature(0, FeatureObject(93, 0.8, 0.81, 0.9, K0))
        # C: 0.9 + 0.7 = 1.6 ties B, who keeps its place on oid — but
        # a tie always counts as a change: doubt, not a wrong answer.
        assert w.cache.get(w.key) is None
        assert w.ranked() == w.ranked(w.filled)

    def tie_e_with_b(self) -> HandBuilt:
        """E (5) at B's 1.6 (0.8 + 0.8), behind B on oid: the answer is
        still A, B."""
        w = HandBuilt()
        w.live.insert_feature(0, FeatureObject(95, 0.81, 0.2, 0.8, K0))
        w.live.insert_feature(1, FeatureObject(96, 0.81, 0.2, 0.8, K0))
        w.refill()
        assert w.ranked() == [(1, 1.8), (2, 1.6)]
        return w

    def test_r3_an_insert_the_objects_own_set_already_beats_survives(self):
        w = self.tie_e_with_b()
        # E's set-0 term is 0.8 > 0.7: E keeps 1.6, still behind B.  Its
        # other set, 0.8, stays below 1.6 - 0.7; folding both sets would
        # see E's 1.6 reach s_k and call it a change.
        w.live.insert_feature(0, FeatureObject(97, 0.8, 0.21, 0.7, K0))
        w.assert_survives()

    def test_r3_an_insert_whose_other_sets_reach_the_rest_is_stale(self):
        w = self.tie_e_with_b()
        # E's set 0 gives 0.8 >= 1.6 - 0.85: E: 0.8 + 0.85 = 1.65 > 1.6.
        w.live.insert_feature(1, FeatureObject(97, 0.8, 0.21, 0.85, K0))
        w.assert_killed()

    @pytest.mark.parametrize(
        "spot, score, outcome",
        [
            ((0.8, 0.81), 0.75, "survives"),  # C: 0.5 -> 0.75 < B's 0.8
            ((0.8, 0.81), 0.85, "killed"),  # C: 0.5 -> 0.85 > B's 0.8
            # Nobody in range, but at c = 1 the ceiling is the whole
            # rule: an arrival reaching s_k by itself is doubt.
            ((0.5, 0.9), 0.85, "doubt"),
        ],
    )
    def test_r3_at_c1_the_ceiling_decides_without_the_scorer(
        self, spot, score, outcome
    ):
        w = HandBuilt(c=1)  # A 0.9, B 0.8, C 0.5

        def no_scorer(*args):
            raise AssertionError("R3 at c = 1 asked the scorer")

        w.live.reaches = no_scorer
        w.live.insert_feature(0, FeatureObject(93, *spot, score, K0))
        if outcome == "survives":
            w.assert_survives()
        elif outcome == "killed":
            w.assert_killed()
        else:
            assert w.cache.get(w.key) is None
            assert w.ranked() == w.ranked(w.filled)

    def test_r3_scores_over_a_feature_an_earlier_delta_added(self):
        w = HandBuilt()
        # E gains 0.7, then 0.95: each insert alone leaves it below B,
        # and the second is scored over the trees with the first in.
        w.live.insert_feature(1, FeatureObject(94, 0.8, 0.21, 0.7, K0))
        w.live.insert_feature(0, FeatureObject(93, 0.8, 0.19, 0.95, K0))
        w.assert_killed()  # E: 0 -> 1.65 > 1.6

    def test_move_with_a_harmless_old_side_and_a_harmful_new_side(self):
        w = HandBuilt()
        w.live.move_feature(0, 90, 0.8, 0.81)  # from nowhere to beside C
        w.assert_killed()  # C: 1.2 -> 1.7

    def test_move_between_two_harmless_places_survives(self):
        w = HandBuilt()
        w.live.rescore_feature(0, 90, 0.3)  # still out of everyone's range
        w.live.move_feature(0, 90, 0.2, 0.81)  # beside D: 0 -> 0.3
        w.assert_survives()

    def test_influence_and_nearest_have_no_radius_to_hide_behind(self):
        for variant in (Variant.INFLUENCE, Variant.NEAREST):
            w = HandBuilt()
            query = w.query.with_variant(variant)
            filled = w.live.query(query, algorithm="stps")
            w.cache.put(w.key, filled, w.cache.epoch, query)
            w.live.rescore_feature(0, 90, 0.3)  # relevant, far from all
            assert w.cache.get(w.key) is None, variant
            w.cache.put(w.key, filled, w.cache.epoch, query)
            w.live.delete_feature(0, 91)  # R1 holds in every variant
            assert w.cache.get(w.key) is filled, variant

    # R4 ---------------------------------------------------------------
    def test_r4_deleting_a_reported_object(self):
        w = HandBuilt()
        w.live.delete_object(2)
        w.assert_killed()

    def test_r4_deleting_an_unreported_object_changes_nothing(self):
        w = HandBuilt()
        w.live.delete_object(3)
        w.live.delete_object(5)
        w.assert_survives()

    # R5 ---------------------------------------------------------------
    def test_r5_inserting_an_object_that_ties_the_kth_score(self):
        w = HandBuilt()
        w.live.insert_object(DataObject(0, 0.5, 0.5))  # 1.6, and oid < B's
        w.assert_killed()

    def test_r5_inserting_an_object_that_beats_it(self):
        w = HandBuilt()
        w.live.insert_object(DataObject(9, 0.2, 0.2))  # 1.8
        w.assert_killed()

    def test_r5_inserting_an_object_that_scores_below_it(self):
        w = HandBuilt()
        w.live.insert_object(DataObject(0, 0.8, 0.8))  # 1.2
        w.assert_survives()

    def test_r5_scores_the_object_over_the_features_as_they_are_now(self):
        w = HandBuilt()
        w.live.insert_object(DataObject(0, 0.8, 0.8))  # 1.2 when inserted
        w.live.insert_feature(
            0, FeatureObject(93, 0.8, 0.81, 0.55, K0)
        )  # weak enough for R3; lifts C and the newcomer to 1.25
        w.assert_survives()

    def test_r5_is_doubt_when_a_write_lands_before_it_scores(self):
        w = HandBuilt()
        w.live.insert_object(DataObject(6, 0.2, 0.2))  # 1.8 at v1: enters
        read_log = w.live.deltas

        def read_then_write(since):
            deltas = read_log(since)
            w.live.delete_feature(0, 10)  # A and 6 fall to 0.9 at v2
            return deltas

        w.live.deltas = read_then_write
        # Scoring 6 at v2 says 0.9 < 1.6; proving the answer at v1 on
        # that would serve A and B, wrong at v1 and at v2 alike.
        assert w.cache.get(w.key) is None
        assert w.live.version == 2

    # Influence and nearest-neighbour newcomers have no radius to fall
    # outside: the per-object fold settles each against ``s_k``.
    R5_SPOTS = {  # variant: (below, ties the k-th, beats it)
        Variant.INFLUENCE: ((0.8, 0.8), (0.5, 0.5), (0.2, 0.2)),
        Variant.NEAREST: ((0.8, 0.8), (0.35, 0.15), (0.5, 0.1)),
    }

    @pytest.mark.parametrize("variant", sorted(R5_SPOTS, key=str))
    def test_r5_a_newcomer_below_the_kth_survives(self, variant):
        w = HandBuilt(variant=variant)
        w.live.insert_object(DataObject(9, *self.R5_SPOTS[variant][0]))
        w.assert_survives()  # 1.120 < 1.493 (influence), 1.2 < 1.8 (NN)

    @pytest.mark.parametrize("variant", sorted(R5_SPOTS, key=str))
    def test_r5_a_newcomer_that_ties_the_kth_is_doubt(self, variant):
        w = HandBuilt(variant=variant)
        w.live.insert_object(DataObject(9, *self.R5_SPOTS[variant][1]))
        # B's 1.493 (influence) or E's 1.8 (NN), on B's or E's side of
        # the oid tie-break: unchanged, but a tie counts as a change.
        assert w.cache.get(w.key) is None
        assert w.ranked() == w.ranked(w.filled)

    @pytest.mark.parametrize("variant", sorted(R5_SPOTS, key=str))
    def test_r5_a_newcomer_that_beats_the_kth(self, variant):
        w = HandBuilt(variant=variant)
        w.live.insert_object(DataObject(9, *self.R5_SPOTS[variant][2]))
        w.assert_killed()  # 1.679 > 1.493 (influence), 1.9 > 1.8 (NN)

    def test_r5_is_unknown_without_a_scorer(self):
        w = HandBuilt()
        w.live.reaches = lambda query, point, floor, skip: None  # doubt
        w.live.insert_object(DataObject(0, 0.8, 0.8))
        assert w.cache.get(w.key) is None

    # edges ------------------------------------------------------------
    def test_zero_score_tail_is_ordered_by_oid_alone(self):
        w = HandBuilt(k=4)  # A, B, C, then D at 0 — E ties it at 0
        w.live.insert_object(DataObject(0, 0.5, 0.9))  # 0 too, smaller oid
        w.assert_killed()

    def test_zero_score_tail_lets_any_relevant_insert_in(self):
        w = HandBuilt(k=4)
        w.live.insert_feature(0, FeatureObject(93, 0.8, 0.21, 0.01, K0))
        w.assert_killed()  # E: 0 -> 0.01 passes D

    def test_fewer_than_k_objects_reports_every_newcomer(self):
        w = HandBuilt(k=4, oids=(1, 2, 3))
        assert len(w.filled.items) == 3
        w.live.insert_object(DataObject(7, 0.5, 0.9))  # scores 0, still in
        w.assert_killed()

    def test_fewer_than_k_objects_still_sees_harmless_writes(self):
        w = HandBuilt(k=4, oids=(1, 2, 3))
        w.live.delete_feature(0, 91)
        w.assert_survives()

    def test_an_entry_older_than_the_delta_log_is_stale(self):
        w = HandBuilt()
        for i in range(DELTA_LOG):
            w.live.rescore_feature(0, 91, (i % 2) / 2)
        w.assert_survives()  # exactly the log's length: all replayed
        for i in range(DELTA_LOG + 1):
            w.live.rescore_feature(0, 91, (i % 2) / 2)
        assert w.cache.get(w.key) is None  # one delta fell off the log
        assert w.ranked() == w.ranked(w.filled)  # doubt, not a change


class TestPinnedReplay:
    """The replay's reach, pinned to the count on a seeded stream of the
    ledger's ``live_mixed`` shape: one op in five a write (the six-op
    mix of :class:`~tests.live.conftest.MutationStream`), the rest reads
    of eight fixed range keys through the cache.  Counts, not times:
    they are the same on every machine."""

    def test_stale_and_revalidated_lookups(self):
        objects, feature_sets = live_world(
            n_objects=150, n_features=150, seed=5
        )
        live = LiveDataset.build(
            objects, feature_sets, page_size=512, buffer_pages=32
        )
        cache = ResultCache(live=live)
        keys = [
            PreferenceQuery(5, 0.1, 0.5, (0b11 << i, 0b11 << (i + 7)))
            for i in range(8)
        ]
        stream = MutationStream(live, seed=11)
        rng = random.Random(13)
        for _ in range(200):
            write = rng.randrange(5)
            for slot in range(5):
                if slot == write:
                    stream.step()
                    continue
                query = keys[rng.randrange(len(keys))]
                key = query_signature(query, "stps")
                if cache.get(key) is None:
                    epoch = cache.epoch
                    result = live.query(query, algorithm="stps")
                    cache.put(key, result, epoch, query)
        # With R3 on its ceiling alone (a relevant arrival passes only
        # when s(t) + (c - 1) < s_k), the same stream gives
        # (stale, revalidated) = (164, 469); with R3 folding every set
        # against s_k, not the other sets against s_k - s(t), (60, 573):
        # one move landed beside two non-members tied with the k-th
        # score, whose set-0 term (0.889) already beat its s(t) (0.517),
        # and counted as a change.
        assert (cache.stale, cache.revalidated) == (59, 574)


def test_racing_lookups_fills_and_writes_keep_the_books():
    """Threads replay the dataset's log outside the cache lock while the
    others keep writing to it, re-stamping and refilling: every lookup
    is still counted exactly once, nothing but the filled result is
    ever served, and a write that kills the answer is never replayed
    around.  Half the writes are harmless by R1, half only by R3's
    scoring on the trees, which races the other threads' writes."""
    w = HandBuilt(k=1)
    live, cache, query, filled = w.live, w.cache, w.query, w.filled
    fids = itertools.count(1000)
    wrong = []

    def work() -> None:
        for i in range(2000):
            if i % 6 == 0:
                # Harmless by R1: keyword 5 is not the query's.
                fid = next(fids)
                live.insert_feature(
                    0,
                    FeatureObject(
                        fid, fid % 97 / 97, fid % 89 / 89, 1.0, frozenset({5})
                    ),
                )
            elif i % 6 == 3:
                # 0.9 + (c - 1) is not below A's 1.8, and no object is
                # within r of (0.35, 0.65): harmless once R3 has looked.
                live.insert_feature(
                    0, FeatureObject(next(fids), 0.35, 0.65, 0.9, K0)
                )
            got = cache.get(("k",))
            if got is None:
                cache.put(("k",), filled, cache.epoch, query)
            elif got is not filled:
                wrong.append(got)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert cache.hits + cache.misses + cache.stale == 4 * 2000
    assert cache.revalidated > 1000 and cache.epoch == 4 * 667
    cache.put(("k",), filled, cache.epoch, query)
    live.delete_object(filled.items[0].oid)
    assert cache.get(("k",)) is None
