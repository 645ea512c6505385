"""Result-cache tests: LRU/epoch mechanics plus the live-coherence
differential — a mutation that changes a cached query's answer must
never be served stale (verified against brute force at 1e-9).
"""

from __future__ import annotations

import pytest

from repro.core.bruteforce import brute_force
from repro.core.executor import QueryExecutor
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult
from repro.errors import ReproError
from repro.live import LiveDataset
from repro.model.objects import FeatureObject
from repro.obs import metrics as _metrics
from repro.serve.cache import ResultCache, query_signature
from repro.serve.service import QueryService, ServeConfig

from tests.live.conftest import live_world

QUERY = PreferenceQuery(3, 0.35, 0.5, (0xFFFF, 0xFFFF), Variant.RANGE)


def _result(marker: float) -> QueryResult:
    result = QueryResult()
    result.stats.wall_s = marker  # distinguishable payloads
    return result


class TestSignature:
    def test_tenant_never_enters_the_key(self):
        # The signature is a pure function of (query, algorithm, pulling):
        # two tenants sharing a query share a cache entry by construction.
        a = query_signature(QUERY, "stps", "prioritized")
        b = query_signature(QUERY, "stps", "prioritized")
        assert a == b

    def test_answer_changing_fields_split_the_key(self):
        base = query_signature(QUERY, "stps", "prioritized")
        assert query_signature(QUERY, "stds", "prioritized") != base
        assert query_signature(QUERY, "stps", "round_robin") != base
        for changed in (
            PreferenceQuery(4, 0.35, 0.5, (0xFFFF, 0xFFFF)),
            PreferenceQuery(3, 0.36, 0.5, (0xFFFF, 0xFFFF)),
            PreferenceQuery(3, 0.35, 0.6, (0xFFFF, 0xFFFF)),
            PreferenceQuery(3, 0.35, 0.5, (0xFFFF, 0xFFF0)),
            PreferenceQuery(
                3, 0.35, 0.5, (0xFFFF, 0xFFFF), Variant.INFLUENCE
            ),
        ):
            assert query_signature(changed, "stps", "prioritized") != base


class TestLRU:
    def test_miss_then_hit(self):
        cache = ResultCache()
        key = query_signature(QUERY, "stps", "prioritized")
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


class TestEpochs:
    def test_bump_invalidates_everything_lazily(self):
        cache = ResultCache()
        cache.put(("a",), _result(1))
        cache.put(("b",), _result(2))
        cache.bump()
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) is None
        assert cache.stale == 2
        assert len(cache) == 0  # stale entries dropped on lookup

    def test_refill_after_bump_serves_again(self):
        cache = ResultCache()
        cache.put(("a",), _result(1))
        cache.bump()
        cache.put(("a",), _result(2))
        assert cache.get(("a",)).stats.wall_s == 2

    def test_fill_computed_before_a_bump_is_dropped(self):
        # A mutation lands between the miss and the fill: the answer was
        # computed on the pre-mutation world and must not be stamped
        # with the post-mutation epoch.
        cache = ResultCache()
        assert cache.get(("k",)) is None
        epoch = cache.epoch
        cache.bump()
        assert cache.put(("k",), _result(1), epoch) is False
        assert cache.get(("k",)) is None and len(cache) == 0
        # The same fill at an unmoved epoch is kept.
        assert cache.put(("k",), _result(2), cache.epoch) is True
        assert cache.get(("k",)).stats.wall_s == 2

    def test_metrics_count_events(self):
        with _metrics.scoped_registry() as reg:
            cache = ResultCache()
            cache.put(("a",), _result(1))
            cache.get(("a",))
            cache.bump()
            cache.get(("a",))
            family = reg.get("repro_serve_cache_total")
            counts = {lv[0]: c.value for lv, c in family.series()}
        assert counts == {"fill": 1, "hit": 1, "stale": 1}


class TestLiveCoherence:
    @pytest.fixture()
    def live(self) -> LiveDataset:
        objects, feature_sets = live_world(
            n_objects=40, n_features=30, seed=9
        )
        return LiveDataset.build(
            objects, feature_sets, page_size=512, buffer_pages=32
        )

    def test_mutation_bumps_attached_cache(self, live):
        cache = ResultCache()
        cache.attach_live(live)
        cache.put(("k",), _result(1))
        live.insert_feature(
            0, FeatureObject(999_001, 0.5, 0.5, 0.9, frozenset({1}))
        )
        assert cache.get(("k",)) is None  # stale, not served
        cache.detach()
        live.insert_feature(
            0, FeatureObject(999_002, 0.6, 0.6, 0.9, frozenset({2}))
        )
        cache.put(("k2",), _result(2))
        assert cache.get(("k2",)) is not None  # detached: no more bumps

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
