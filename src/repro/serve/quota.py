"""Per-tenant token-bucket quotas for the serving layer.

A tenant's quota is a classic token bucket: ``rate`` tokens per second
refill up to a ``burst`` ceiling, one token per admitted request.  A
tenant that exhausts its bucket is rejected with the time until the next
token becomes available — the serving layer turns that into a 429 with a
``Retry-After`` header, so well-behaved clients back off for exactly as
long as the bucket needs.

Buckets are created lazily per tenant (millions of users must not mean
millions of pre-provisioned buckets) from a default ``(rate, burst)``
pair, with explicit per-tenant overrides for tiered plans or abuse
clamps.  The table is bounded: least-recently-used *default-quota*
buckets are dropped once ``max_tenants`` is reached (a dropped bucket
resurrects full, which momentarily favours the evicted tenant — the
cheap and safe direction), while override buckets are pinned.

All state is process-local and thread-safe; time is injected
(``clock``) so tests can drive refill deterministically.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ReproError

#: Default bucket table bound (lazily created default-quota buckets).
DEFAULT_MAX_TENANTS = 100_000


@dataclass(frozen=True, slots=True)
class QuotaSpec:
    """A tenant's admission budget: sustained rate + burst ceiling."""

    rate: float = math.inf   # tokens (requests) per second
    burst: float = math.inf  # bucket capacity

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ReproError(f"quota rate must be > 0, got {self.rate}")
        if not self.burst >= 1:
            raise ReproError(f"quota burst must be >= 1, got {self.burst}")

    @property
    def unlimited(self) -> bool:
        return math.isinf(self.rate)


class _Bucket:
    """One tenant's token bucket (not thread-safe; table lock guards it)."""

    __slots__ = ("spec", "tokens", "stamp", "admitted", "rejected")

    def __init__(self, spec: QuotaSpec, now: float) -> None:
        self.spec = spec
        self.tokens = spec.burst
        self.stamp = now
        self.admitted = 0
        self.rejected = 0

    def refill(self, now: float) -> None:
        elapsed = now - self.stamp
        self.stamp = now
        if elapsed > 0 and not self.spec.unlimited:
            self.tokens = min(
                self.spec.burst, self.tokens + elapsed * self.spec.rate
            )

    def try_acquire(self, now: float) -> float:
        """Admit (returns 0.0) or reject with seconds until a token."""
        if self.spec.unlimited:
            self.admitted += 1
            return 0.0
        self.refill(now)
        # The epsilon absorbs float error in elapsed*rate refill sums:
        # a bucket refilled for exactly one token must admit.
        if self.tokens >= 1.0 - 1e-9:
            self.tokens = max(0.0, self.tokens - 1.0)
            self.admitted += 1
            return 0.0
        self.rejected += 1
        return (1.0 - self.tokens) / self.spec.rate


class TenantQuotas:
    """Lazily populated, bounded table of per-tenant token buckets."""

    def __init__(
        self,
        default: QuotaSpec | None = None,
        overrides: dict[str, QuotaSpec] | None = None,
        max_tenants: int = DEFAULT_MAX_TENANTS,
        clock=time.monotonic,
    ) -> None:
        if max_tenants < 1:
            raise ReproError(f"max_tenants must be >= 1, got {max_tenants}")
        self.default = default or QuotaSpec()
        self.overrides = dict(overrides or {})
        self.max_tenants = max_tenants
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, _Bucket] = OrderedDict()

    def set_override(self, tenant: str, spec: QuotaSpec) -> None:
        """Pin a tenant to an explicit quota (replaces its live bucket)."""
        with self._lock:
            self.overrides[tenant] = spec
            self._buckets.pop(tenant, None)

    def try_acquire(self, tenant: str) -> float:
        """0.0 when admitted, else seconds until the tenant's next token."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                spec = self.overrides.get(tenant, self.default)
                bucket = _Bucket(spec, now)
                self._buckets[tenant] = bucket
                self._evict()
            else:
                self._buckets.move_to_end(tenant)
            return bucket.try_acquire(now)

    def _evict(self) -> None:
        # Drop least-recently-seen default-quota buckets; override
        # buckets are pinned (they encode an explicit clamp).
        while len(self._buckets) > self.max_tenants:
            for tenant in self._buckets:
                if tenant not in self.overrides:
                    del self._buckets[tenant]
                    break
            else:  # every bucket is an override: nothing evictable
                break

    def tenant_count(self) -> int:
        """Live bucket count (distinct tenants seen, post-eviction)."""
        with self._lock:
            return len(self._buckets)

    def describe(self) -> dict:
        """Live quota state, JSON-friendly (``/stats/serve`` payload)."""
        now = self._clock()
        with self._lock:
            tenants = {}
            for tenant, bucket in self._buckets.items():
                bucket.refill(now)
                tenants[tenant] = {
                    "rate": _finite(bucket.spec.rate),
                    "burst": _finite(bucket.spec.burst),
                    "tokens": round(bucket.tokens, 3)
                    if not bucket.spec.unlimited else None,
                    "admitted": bucket.admitted,
                    "rejected": bucket.rejected,
                }
            return {
                "default": {
                    "rate": _finite(self.default.rate),
                    "burst": _finite(self.default.burst),
                },
                "tenants": tenants,
            }


def _finite(value: float) -> float | None:
    """inf → None so quota state stays strict-JSON serialisable."""
    return None if math.isinf(value) else value
