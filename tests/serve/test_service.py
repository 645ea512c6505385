"""Admission-control tests for :class:`repro.serve.service.QueryService`.

A fake executor drives the gates deterministically (queue depth and
queue-wait samples are inputs, not races); one integration test runs the
real executor to pin the end-to-end dispatch.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.core.executor import QueryExecutor
from repro.core.query import PreferenceQuery
from repro.core.results import QueryResult, QueryStats, ResultItem
from repro.errors import QueryError, ReproError
from repro.obs import metrics as _metrics
from repro.serve.quota import QuotaSpec
from repro.serve.service import QueryService, ServeConfig

QUERY = PreferenceQuery(3, 0.1, 0.5, (0b111, 0b101))
OTHER = PreferenceQuery(4, 0.1, 0.5, (0b111, 0b101))


class FakeExecutor:
    """Scripted executor: fixed depth, scripted (wait, latency) samples."""

    max_workers = 2

    def __init__(self, depth: int = 0, queue_wait_s: float = 0.0):
        self.depth = depth
        self.queue_wait_s = queue_wait_s
        self.calls = 0
        self.raises: Exception | None = None

    @property
    def queue_depth(self) -> int:
        return self.depth

    @property
    def running_count(self) -> int:
        return 0

    def execute_one(self, query, algorithm="stps"):
        self.calls += 1
        if self.raises is not None:
            raise self.raises
        result = QueryResult(
            [ResultItem(1, 0.5, 0.1, 0.2)], QueryStats()
        )
        return result, self.queue_wait_s, 0.001


def make_service(executor=None, **config_kwargs) -> QueryService:
    return QueryService(
        executor or FakeExecutor(), ServeConfig(**config_kwargs)
    )


class TestValidation:
    def test_unknown_algorithm_is_400(self):
        # "iss" names a deleted engine: it is as unknown as any other.
        for algorithm in ("nope", "iss"):
            decision = make_service().handle("t", QUERY, algorithm=algorithm)
            assert decision.status == 400
            assert "algorithm" in decision.reason

    def test_config_validation(self):
        with pytest.raises(ReproError):
            ServeConfig(max_queue_depth=0)
        with pytest.raises(ReproError):
            ServeConfig(latency_slo_s=0)
        with pytest.raises(ReproError):
            ServeConfig(queue_wait_window=0)
        with pytest.raises(ReproError, match="latency_slo_s"):
            ServeConfig(latency_slo_s=math.nan)
        with pytest.raises(ReproError, match="queue_wait_horizon_s"):
            ServeConfig(queue_wait_horizon_s=math.nan)


class TestQuotaGate:
    def test_over_quota_tenant_gets_429_with_retry_after(self):
        service = make_service(default_quota=QuotaSpec(rate=1, burst=1))
        assert service.handle("t", QUERY).status == 200
        decision = service.handle("t", QUERY)
        assert decision.status == 429
        assert decision.retry_after_s > 0
        assert service.rejected_quota == 1

    def test_quota_precedes_cache(self):
        # A hot cached key must not serve an exhausted tenant: the quota
        # gate comes first by design.
        service = make_service(default_quota=QuotaSpec(rate=1, burst=1))
        assert service.handle("drained", QUERY).status == 200  # fills cache
        assert service.handle("other", QUERY).cached  # cache is hot
        assert service.handle("drained", QUERY).status == 429

    def test_quota_overrides_clamp_one_tenant(self):
        service = QueryService(
            FakeExecutor(),
            ServeConfig(
                quota_overrides={"abuser": QuotaSpec(rate=1, burst=1)}
            ),
        )
        assert service.handle("abuser", QUERY).status == 200
        assert service.handle("abuser", QUERY).status == 429
        assert service.handle("anyone-else", QUERY).status == 200


class TestCacheGate:
    def test_second_request_is_cached(self):
        executor = FakeExecutor()
        service = QueryService(executor, ServeConfig())
        first = service.handle("a", QUERY)
        second = service.handle("b", QUERY)
        assert not first.cached and second.cached
        assert executor.calls == 1
        assert second.result.items[0].oid == first.result.items[0].oid

    def test_mutation_during_a_miss_is_not_cached_as_fresh(self):
        # The live dataset moves while the executor is still computing
        # the miss: that answer may predate the write, so the next
        # request must execute again instead of hitting it.
        class Live:
            version = 0

            def revalidate(self, query, items, since):
                return self.version  # every write harmless, were it replayed

        class MutatingExecutor(FakeExecutor):
            def execute_one(self, *args, **kwargs):
                out = super().execute_one(*args, **kwargs)
                if self.calls == 1:
                    # A fill that overlapped a write is dropped.
                    live.version += 1
                return out

        live = Live()
        executor = MutatingExecutor()
        service = QueryService(executor, ServeConfig(), live=live)
        assert service.handle("a", QUERY).status == 200
        second = service.handle("b", QUERY)
        assert not second.cached and executor.calls == 2
        assert service.handle("c", QUERY).cached  # the clean fill sticks

    def test_cache_disabled_executes_every_time(self):
        executor = FakeExecutor()
        service = QueryService(
            executor, ServeConfig(cache_enabled=False)
        )
        service.handle("a", QUERY)
        service.handle("b", QUERY)
        assert executor.calls == 2

    def test_hits_bypass_backpressure(self):
        executor = FakeExecutor(depth=0)
        service = QueryService(executor, ServeConfig(max_queue_depth=1))
        assert service.handle("a", QUERY).status == 200  # fills cache
        executor.depth = 50  # now heavily backpressured
        hit = service.handle("b", QUERY)
        assert hit.status == 200 and hit.cached
        miss = service.handle("c", OTHER)
        assert miss.status == 429  # uncached work is shed


class TestBackpressureGate:
    def test_depth_bound_rejects_with_retry_after(self):
        service = make_service(FakeExecutor(depth=8), max_queue_depth=8)
        decision = service.handle("t", QUERY)
        assert decision.status == 429
        assert decision.retry_after_s > 0
        assert "queue depth" in decision.reason
        assert service.rejected_backpressure == 1

    def test_retry_after_is_monotone_in_waiters(self):
        executor = FakeExecutor(depth=8)
        service = make_service(executor, max_queue_depth=8, latency_slo_s=0.5)
        hints = []
        for depth in (8, 9, 16, 40, 400):
            executor.depth = depth
            hints.append(service.handle("t", QUERY).retry_after_s)
        assert hints == sorted(hints)
        assert hints[0] < hints[2] < hints[-1] == 5.0  # grows, then clamps

    def test_queue_wait_p95_over_slo_rejects(self):
        # Executed queries report a queue wait far over the 100ms SLO
        # target; once the sliding window holds the breach, admission
        # stops even though the queue is shallow.
        executor = FakeExecutor(depth=0, queue_wait_s=0.5)
        service = QueryService(
            executor, ServeConfig(latency_slo_s=0.1, cache_enabled=False)
        )
        assert service.handle("t", QUERY).status == 200  # window empty
        decision = service.handle("t", QUERY)
        assert decision.status == 429
        assert "p95" in decision.reason
        assert executor.calls == 1

    def test_stale_overload_expires_past_horizon(self):
        # A transient overload must not poison the gate forever: shed
        # misses never execute (so they never refresh the window) and
        # cache hits bypass the gate entirely, so only the time horizon
        # can cure a stale breach.
        executor = FakeExecutor(depth=0, queue_wait_s=0.5)
        service = QueryService(
            executor,
            ServeConfig(
                latency_slo_s=0.1, cache_enabled=False,
                queue_wait_horizon_s=0.05,
            ),
        )
        assert service.handle("t", QUERY).status == 200
        assert service.handle("t", QUERY).status == 429  # window poisoned
        time.sleep(0.06)  # breach ages past the horizon
        executor.queue_wait_s = 0.001
        assert service.handle("t", QUERY).status == 200

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ReproError, match="queue_wait_horizon_s"):
            ServeConfig(queue_wait_horizon_s=0.0)

    def test_healthy_waits_admit(self):
        executor = FakeExecutor(depth=0, queue_wait_s=0.001)
        service = QueryService(
            executor, ServeConfig(latency_slo_s=0.1, cache_enabled=False)
        )
        for _ in range(10):
            assert service.handle("t", QUERY).status == 200
        assert executor.calls == 10


class TestErrors:
    def test_engine_repro_error_maps_to_400(self):
        executor = FakeExecutor()
        executor.raises = QueryError("bad query for this engine")
        decision = make_service(executor).handle("t", QUERY)
        assert decision.status == 400
        assert "bad query" in decision.reason

    def test_unexpected_error_maps_to_500(self):
        executor = FakeExecutor()
        executor.raises = RuntimeError("boom")
        service = make_service(executor)
        decision = service.handle("t", QUERY)
        assert decision.status == 500
        assert "boom" in decision.reason
        assert service.errors == 1


class TestMetricsAndDescribe:
    def test_request_metrics_by_tenant_and_outcome(self):
        with _metrics.scoped_registry() as reg:
            service = make_service(
                default_quota=QuotaSpec(rate=1, burst=1)
            )
            service.handle("t", QUERY)
            service.handle("t", QUERY)
            requests = {
                lv: c.value
                for lv, c in reg.get(
                    "repro_serve_requests_total"
                ).series()
            }
            rejections = {
                lv[0]: c.value
                for lv, c in reg.get(
                    "repro_serve_rejections_total"
                ).series()
            }
            statuses = {
                lv[0]: h.count
                for lv, h in reg.get(
                    "repro_serve_request_seconds"
                ).series()
            }
        assert requests == {("t", "ok"): 1, ("t", "quota"): 1}
        assert rejections == {"quota": 1}
        assert statuses == {"200": 1, "429": 1}

    def test_families_follow_registry_swaps_and_resets(self):
        """The families are looked up once per registry, not per request:
        a service built before a swap records into the swapped-in
        registry, and a reset zeroes what it records into."""

        def requests_in(reg) -> dict:
            family = reg.get("repro_serve_requests_total")
            return {lv: c.value for lv, c in family.series()}

        service = make_service(cache_enabled=False)
        with _metrics.scoped_registry() as first:
            service.handle("t", QUERY)
        with _metrics.scoped_registry() as second:
            service.handle("t", QUERY)
            service.handle("u", QUERY)
            second.reset()
            service.handle("u", QUERY)
            gauge = second.get("repro_serve_tenant_table_size").value
        assert requests_in(first) == {("t", "ok"): 1}
        assert requests_in(second) == {("t", "ok"): 0, ("u", "ok"): 1}
        assert gauge == 2.0

    def test_describe_is_strict_json(self):
        service = make_service()
        service.handle("t", QUERY)
        doc = service.describe()
        json.dumps(doc, allow_nan=False)
        assert doc["served"] == 1
        assert doc["executor"]["max_queue_depth"] == 64
        assert doc["cache"]["entries"] == 1


class TestRealExecutorIntegration:
    def test_served_answer_matches_direct_query(self, srt_processor):
        query = PreferenceQuery(5, 0.25, 0.5, (0xFF, 0xFF))
        expected = srt_processor.query(query)
        with QueryExecutor(srt_processor, max_workers=2) as executor:
            service = QueryService(executor, ServeConfig())
            decision = service.handle("t", query)
        assert decision.status == 200
        assert decision.result.scores == expected.scores
        assert decision.result.oids == expected.oids
