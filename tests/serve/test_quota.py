"""Unit tests for the per-tenant token buckets (:mod:`repro.serve.quota`).

Time is injected, so refill is driven deterministically by a fake clock.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ReproError
from repro.serve.quota import QuotaSpec, TenantQuotas


class Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture()
def clock() -> Clock:
    return Clock()


class TestQuotaSpec:
    def test_default_is_unlimited(self):
        spec = QuotaSpec()
        assert spec.unlimited

    def test_validation(self):
        with pytest.raises(ReproError, match="rate"):
            QuotaSpec(rate=0)
        with pytest.raises(ReproError, match="rate"):
            QuotaSpec(rate=-1)
        with pytest.raises(ReproError, match="burst"):
            QuotaSpec(rate=1, burst=0.5)
        # NaN fails every comparison, so each check must be a positive
        # test for NaN to be rejected.
        with pytest.raises(ReproError, match="rate"):
            QuotaSpec(rate=math.nan)
        with pytest.raises(ReproError, match="burst"):
            QuotaSpec(rate=1, burst=math.nan)
        assert QuotaSpec(rate=math.inf, burst=math.inf).unlimited


class TestTokenBucket:
    def test_unlimited_always_admits(self, clock):
        quotas = TenantQuotas(clock=clock)
        assert all(quotas.try_acquire("t") == 0.0 for _ in range(1000))

    def test_burst_then_reject_with_retry_after(self, clock):
        quotas = TenantQuotas(QuotaSpec(rate=10, burst=3), clock=clock)
        assert [quotas.try_acquire("t") for _ in range(3)] == [0.0] * 3
        retry = quotas.try_acquire("t")
        # Empty bucket at 10 tokens/s: next token in 1/10 s.
        assert retry == pytest.approx(0.1)

    def test_refill_restores_admission(self, clock):
        quotas = TenantQuotas(QuotaSpec(rate=10, burst=1), clock=clock)
        assert quotas.try_acquire("t") == 0.0
        assert quotas.try_acquire("t") > 0.0
        clock.advance(0.1)  # exactly one token
        assert quotas.try_acquire("t") == 0.0
        assert quotas.try_acquire("t") > 0.0

    def test_refill_caps_at_burst(self, clock):
        quotas = TenantQuotas(QuotaSpec(rate=100, burst=2), clock=clock)
        clock.advance(3600.0)  # an hour of refill still only buys `burst`
        admitted = sum(
            1 for _ in range(10) if quotas.try_acquire("t") == 0.0
        )
        assert admitted == 2

    def test_tenants_are_independent(self, clock):
        quotas = TenantQuotas(QuotaSpec(rate=1, burst=1), clock=clock)
        assert quotas.try_acquire("a") == 0.0
        assert quotas.try_acquire("a") > 0.0  # a is drained...
        assert quotas.try_acquire("b") == 0.0  # ...b is untouched


class TestOverrides:
    def test_override_clamps_one_tenant(self, clock):
        quotas = TenantQuotas(
            overrides={"abuser": QuotaSpec(rate=1, burst=1)}, clock=clock
        )
        assert quotas.try_acquire("abuser") == 0.0
        assert quotas.try_acquire("abuser") > 0.0
        # Default tenants stay unlimited.
        assert all(quotas.try_acquire("ok") == 0.0 for _ in range(100))

    def test_set_override_replaces_live_bucket(self, clock):
        quotas = TenantQuotas(QuotaSpec(rate=1000, burst=1000), clock=clock)
        assert quotas.try_acquire("t") == 0.0
        quotas.set_override("t", QuotaSpec(rate=1, burst=1))
        assert quotas.try_acquire("t") == 0.0  # fresh clamped bucket
        assert quotas.try_acquire("t") > 0.0


class TestBoundedTable:
    def test_lru_eviction_bounds_the_table(self, clock):
        quotas = TenantQuotas(
            QuotaSpec(rate=1, burst=5), max_tenants=3, clock=clock
        )
        for tenant in ("a", "b", "c", "d"):
            quotas.try_acquire(tenant)
        assert len(quotas._buckets) == 3
        assert "a" not in quotas._buckets  # least recently seen

    def test_touch_refreshes_recency(self, clock):
        quotas = TenantQuotas(
            QuotaSpec(rate=1, burst=5), max_tenants=2, clock=clock
        )
        quotas.try_acquire("a")
        quotas.try_acquire("b")
        quotas.try_acquire("a")  # refresh a
        quotas.try_acquire("c")  # evicts b, not a
        assert set(quotas._buckets) == {"a", "c"}

    def test_override_buckets_are_pinned(self, clock):
        quotas = TenantQuotas(
            QuotaSpec(rate=1, burst=5),
            overrides={"vip": QuotaSpec(rate=100, burst=100)},
            max_tenants=2,
            clock=clock,
        )
        quotas.try_acquire("vip")
        quotas.try_acquire("a")
        quotas.try_acquire("b")  # table over bound: a default bucket goes
        assert "vip" in quotas._buckets

    def test_evicted_tenant_resurrects_full(self, clock):
        quotas = TenantQuotas(
            QuotaSpec(rate=1, burst=1), max_tenants=1, clock=clock
        )
        assert quotas.try_acquire("a") == 0.0
        assert quotas.try_acquire("a") > 0.0  # drained
        quotas.try_acquire("b")  # evicts a
        assert quotas.try_acquire("a") == 0.0  # fresh bucket, full burst

    def test_max_tenants_validated(self):
        with pytest.raises(ReproError, match="max_tenants"):
            TenantQuotas(max_tenants=0)


class TestDescribe:
    def test_strict_json_with_unlimited_default(self, clock):
        quotas = TenantQuotas(clock=clock)
        quotas.try_acquire("t")
        doc = quotas.describe()
        json.dumps(doc, allow_nan=False)  # inf must have become None
        assert doc["default"]["rate"] is None
        assert doc["tenants"]["t"]["admitted"] == 1

    def test_counts_admissions_and_rejections(self, clock):
        quotas = TenantQuotas(QuotaSpec(rate=1, burst=2), clock=clock)
        for _ in range(5):
            quotas.try_acquire("t")
        doc = quotas.describe()
        assert doc["tenants"]["t"]["admitted"] == 2
        assert doc["tenants"]["t"]["rejected"] == 3
        assert doc["tenants"]["t"]["rate"] == 1
