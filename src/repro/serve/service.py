"""Transport-agnostic serving core: admission control + dispatch.

:class:`QueryService` is what the HTTP layer (:mod:`repro.serve.http`)
wraps: one long-lived object owning a quota table, a result cache and a
shared :class:`~repro.core.executor.QueryExecutor` (whose processor may
be a single-node :class:`~repro.core.processor.QueryProcessor` or a
:class:`~repro.shard.ShardedQueryProcessor`).  Keeping it free of any
HTTP types makes every admission decision unit-testable without sockets.

A request passes through three gates, in a deliberate order:

1. **Quota** — the tenant's token bucket (:mod:`repro.serve.quota`).
   First, so an abusive tenant is clamped before it can touch shared
   resources (even the cache: a hot key must not launder an exhausted
   tenant's traffic past its bucket).
2. **Cache** — the delta-validated result cache
   (:mod:`repro.serve.cache`).  Hits return immediately and *bypass
   backpressure*: a cache hit costs no executor capacity, so rejecting
   it during overload would throw away exactly the traffic that is
   cheapest to serve.  Under zipf-skewed keys this is what keeps the
   p99 flat while the executor is saturated.
3. **Backpressure** — reject with 429/``Retry-After`` when the executor
   queue is past its depth bound, or when the sliding-window p95 of
   queue wait has breached the latency target
   (``ServeConfig.latency_slo_s``): once waiting for a slot alone eats
   the latency budget, admitting more work can only create
   SLO-violating answers.

Admitted queries run via :meth:`QueryExecutor.execute_one`, which
reports the (queue_wait, latency) sample that feeds the backpressure
window and the ``repro_serve_*`` metrics.

Every request is traced end to end: :meth:`QueryService.handle` enters
a trace scope (inheriting a client-donated W3C trace id when the HTTP
layer parsed one), wraps each admission gate in a span
(``serve.quota`` / ``serve.cache`` / ``serve.backpressure`` /
``serve.execute``), collects the request's spans through a per-request
sink even while global tracing is off, and hands the finished request
to the tail-sampled trace store (:mod:`repro.obs.requests`).  RED
metrics are tenant-scoped with bounded label cardinality: past
``tenant_label_limit`` distinct tenants, new ones fold into the
``__other__`` overflow label so a tenant-id cardinality explosion
cannot take down the metrics registry.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.combinations import PULL_PRIORITIZED, PULL_ROUND_ROBIN
from repro.core.processor import ALGORITHM_ISS, ALGORITHM_STDS, ALGORITHM_STPS
from repro.core.query import PreferenceQuery
from repro.core.results import QueryResult
from repro.errors import ReproError
from repro.obs import flight as _flight
from repro.obs import metrics as _metrics
from repro.obs import requests as _requests
from repro.obs import tracing as _tracing
from repro.serve.cache import ResultCache, query_signature
from repro.serve.quota import QuotaSpec, TenantQuotas

logger = logging.getLogger(__name__)

ALGORITHMS = (ALGORITHM_STPS, ALGORITHM_STDS, ALGORITHM_ISS)
PULLING_STRATEGIES = (PULL_PRIORITIZED, PULL_ROUND_ROBIN)

#: Default bound on queries queued behind the executor's workers.
DEFAULT_MAX_QUEUE_DEPTH = 64

#: Default sliding-window size (samples) for the queue-wait p95 gate.
DEFAULT_QUEUE_WAIT_WINDOW = 256
DEFAULT_QUEUE_WAIT_HORIZON_S = 10.0

#: Latency target of the backpressure gate.
DEFAULT_LATENCY_SLO_S = 0.1

#: Distinct tenants that get their own metric label before new ones
#: fold into :data:`OVERFLOW_TENANT`.
DEFAULT_TENANT_LABEL_LIMIT = 64

#: The overflow label for tenants past the cardinality cap.
OVERFLOW_TENANT = "__other__"

#: Metric families owned by the serving layer (reset scope).
SERVE_METRIC_FAMILIES = (
    "repro_serve_requests_total",
    "repro_serve_rejections_total",
    "repro_serve_request_seconds",
    "repro_serve_tenant_seconds",
    "repro_serve_cache_hit_rate",
    "repro_serve_tenant_table_size",
    "repro_serve_shed_requests",
)


def requests_metric() -> "_metrics.MetricFamily":
    """Per-tenant requests by outcome."""
    return _metrics.registry().counter(
        "repro_serve_requests_total",
        "Serving requests by tenant and outcome.",
        ("tenant", "outcome"),
    )


def rejections_metric() -> "_metrics.MetricFamily":
    """Admission rejections by gate (quota / backpressure)."""
    return _metrics.registry().counter(
        "repro_serve_rejections_total",
        "Requests rejected by admission control.",
        ("reason",),
    )


def request_seconds_metric() -> "_metrics.MetricFamily":
    """End-to-end serving latency (admission + execution)."""
    return _metrics.registry().histogram(
        "repro_serve_request_seconds",
        "Wall time from admission to response, by outcome.",
        ("status",),
    )


def tenant_seconds_metric() -> "_metrics.MetricFamily":
    """End-to-end serving latency by tenant (cardinality-capped)."""
    return _metrics.registry().histogram(
        "repro_serve_tenant_seconds",
        "Wall time from admission to response, by tenant.",
        ("tenant",),
    )


@dataclass(slots=True)
class ServeConfig:
    """Operator knobs for one :class:`QueryService`."""

    default_quota: QuotaSpec = field(default_factory=QuotaSpec)
    quota_overrides: dict[str, QuotaSpec] = field(default_factory=dict)
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    #: Latency target the backpressure gate enforces.
    latency_slo_s: float = DEFAULT_LATENCY_SLO_S
    queue_wait_window: int = DEFAULT_QUEUE_WAIT_WINDOW
    #: Queue-wait samples older than this stop counting toward the
    #: backpressure p95.  Without a time horizon a transient overload
    #: poisons the count-bounded window permanently: cache misses get
    #: shed (so they never execute and never refresh the window) while
    #: cache hits bypass the gate — the service keeps shedding all
    #: uncached work long after the queue has drained.
    queue_wait_horizon_s: float = DEFAULT_QUEUE_WAIT_HORIZON_S
    cache_entries: int = 4096
    cache_enabled: bool = True
    #: Cardinality cap on the ``tenant`` metric label; tenants past it
    #: share the :data:`OVERFLOW_TENANT` label.
    tenant_label_limit: int = DEFAULT_TENANT_LABEL_LIMIT

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ReproError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.latency_slo_s <= 0:
            raise ReproError(
                f"latency_slo_s must be > 0, got {self.latency_slo_s}"
            )
        if self.queue_wait_window < 1:
            raise ReproError(
                f"queue_wait_window must be >= 1, got {self.queue_wait_window}"
            )
        if self.queue_wait_horizon_s <= 0:
            raise ReproError(
                f"queue_wait_horizon_s must be > 0, got "
                f"{self.queue_wait_horizon_s}"
            )
        if self.tenant_label_limit < 1:
            raise ReproError(
                f"tenant_label_limit must be >= 1, got "
                f"{self.tenant_label_limit}"
            )

@dataclass(slots=True)
class ServeDecision:
    """One request's outcome, independent of transport.

    ``status`` is deliberately HTTP-shaped (200/400/429/500) so the
    transport layer is a dumb mapping, but nothing here imports HTTP.
    """

    status: int
    result: QueryResult | None = None
    cached: bool = False
    retry_after_s: float = 0.0
    reason: str = ""
    queue_wait_s: float = 0.0
    latency_s: float = 0.0
    #: The request's trace id (client-donated or minted), set by
    #: :meth:`QueryService.handle` on every decision.
    trace_id: str = ""
    #: Terminal outcome label: ok / cached / quota / backpressure /
    #: bad_request / error.
    outcome: str = ""


class _TenantLabelLimiter:
    """Caps distinct tenant label values; overflow shares one label."""

    __slots__ = ("_limit", "_seen", "_lock")

    def __init__(self, limit: int) -> None:
        self._limit = limit
        self._seen: set[str] = set()
        self._lock = threading.Lock()

    def resolve(self, tenant: str) -> str:
        with self._lock:
            if tenant in self._seen:
                return tenant
            if len(self._seen) < self._limit:
                self._seen.add(tenant)
                return tenant
        return OVERFLOW_TENANT

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)


class QueryService:
    """Multi-tenant admission control around a shared executor."""

    def __init__(
        self,
        executor,
        config: ServeConfig | None = None,
        live=None,
    ) -> None:
        self.executor = executor
        self.config = config or ServeConfig()
        self.quotas = TenantQuotas(
            default=self.config.default_quota,
            overrides=self.config.quota_overrides,
        )
        self.cache = ResultCache(self.config.cache_entries, live)
        self._lock = threading.Lock()
        #: ``(monotonic stamp, queue wait)`` pairs; bounded by count
        #: *and* expired by age (``queue_wait_horizon_s``) so the gate
        #: reflects current congestion, not a long-gone overload.
        self._queue_waits: deque[tuple[float, float]] = deque(
            maxlen=self.config.queue_wait_window
        )
        self.tenant_labels = _TenantLabelLimiter(
            self.config.tenant_label_limit
        )
        self.started_at = time.time()
        self.served = 0
        self.errors = 0
        self.rejected_quota = 0
        self.rejected_backpressure = 0

    # ------------------------------------------------------------------
    # admission gates
    # ------------------------------------------------------------------
    def queue_wait_p95(self) -> float:
        """Sliding-window p95 of executor queue wait (0.0 when empty).

        Samples past the configured time horizon are pruned first, so
        the answer always describes the recent past.
        """
        cutoff = time.monotonic() - self.config.queue_wait_horizon_s
        with self._lock:
            waits = self._queue_waits
            while waits and waits[0][0] < cutoff:
                waits.popleft()
            if not waits:
                return 0.0
            ordered = sorted(wait for _, wait in waits)
        rank = max(1, math.ceil(0.95 * len(ordered)))
        return ordered[rank - 1]

    def _backpressured(self) -> tuple[bool, str]:
        """(reject?, reason) from queue depth and the SLO latency gate."""
        depth = self.executor.queue_depth
        if depth >= self.config.max_queue_depth:
            return True, (
                f"queue depth {depth} at bound {self.config.max_queue_depth}"
            )
        p95 = self.queue_wait_p95()
        if p95 > self.config.latency_slo_s:
            return True, (
                f"queue wait p95 {p95 * 1e3:.1f}ms over SLO target "
                f"{self.config.latency_slo_s * 1e3:.0f}ms"
            )
        return False, ""

    def _backpressure_retry_after(self) -> float:
        """A drain-time estimate, clamped to [0.05, 5] seconds."""
        # Half the SLO target per waiter and slot is a deliberately
        # rough but monotone signal: more waiters -> longer Retry-After.
        depth = max(1, self.executor.queue_depth)
        estimate = (
            depth * (self.config.latency_slo_s / 2.0)
            / self.executor.max_workers
        )
        return max(0.05, min(5.0, estimate))

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def handle(
        self,
        tenant: str,
        query: PreferenceQuery,
        algorithm: str = ALGORITHM_STPS,
        pulling: str = PULL_PRIORITIZED,
        trace_id: str | None = None,
    ) -> ServeDecision:
        """Admit + execute one request; never raises for request faults.

        ``trace_id`` (when the transport parsed one out of a client
        ``traceparent``) becomes the request's trace id end to end —
        spans, query records, exemplars, logs, and the trace store all
        join on it; otherwise a fresh id is minted here, *before* the
        gates, so even a quota 429 is a traced event.
        """
        trace_id = trace_id or _tracing.new_trace_id()
        collector = _tracing.SpanCollector() if _requests.enabled else None
        t0 = time.perf_counter()
        with _tracing.trace_scope(trace_id, collector):
            with _tracing.span("serve.request", cat="serve", tenant=tenant):
                decision = self._admit(tenant, query, algorithm, pulling)
            decision.trace_id = trace_id
            # Metrics + log inside the scope: the exemplar capture and
            # the log record's trace_id field both read the ContextVar.
            self._finish(t0, tenant, decision)
            if decision.status == 429 and collector is not None:
                # Inside the scope too: the rejection's query record
                # joins this request's collector, so it is stored once.
                _flight.record_rejection(
                    query, f"serve/{algorithm}", pulling, trace_id,
                    time.perf_counter() - t0,
                    tenant=tenant, decision=decision.outcome,
                )
        if collector is not None:
            # Lazy query/spans: most requests are dropped by the tail
            # sampler, so the span dicts and the query-shape dict are
            # only built for the kept few.
            _requests.record(
                trace_id=trace_id,
                tenant=tenant,
                outcome=decision.outcome,
                status=decision.status,
                duration_s=time.perf_counter() - t0,
                algorithm=algorithm,
                pulling=pulling,
                query=lambda: _flight.query_args(query),
                spans=collector.snapshot,
                reason=decision.reason,
                records=collector.records,
            )
        return decision

    def _admit(
        self,
        tenant: str,
        query: PreferenceQuery,
        algorithm: str,
        pulling: str,
    ) -> ServeDecision:
        """The admission waterfall; every gate is a traced span."""
        if algorithm not in ALGORITHMS:
            return ServeDecision(
                status=400, outcome="bad_request",
                reason=f"unknown algorithm {algorithm!r}; "
                       f"choose from {list(ALGORITHMS)}",
            )
        if pulling not in PULLING_STRATEGIES:
            return ServeDecision(
                status=400, outcome="bad_request",
                reason=f"unknown pulling {pulling!r}; "
                       f"choose from {list(PULLING_STRATEGIES)}",
            )

        # Gate 1: tenant quota.
        with _tracing.span("serve.quota", cat="serve", tenant=tenant):
            retry_after = self.quotas.try_acquire(tenant)
        if retry_after > 0.0:
            self.rejected_quota += 1
            rejections_metric().labels(reason="quota").inc()
            return ServeDecision(
                status=429, outcome="quota",
                retry_after_s=retry_after,
                reason=f"tenant {tenant!r} over quota",
            )

        # Gate 2: result cache (hits bypass backpressure — they cost no
        # executor capacity, so shedding them would be pure waste).
        key = None
        hit = None
        if self.config.cache_enabled:
            with _tracing.span("serve.cache", cat="serve"):
                key = query_signature(query, algorithm, pulling)
                hit = self.cache.get(key)
            if hit is not None:
                self.served += 1
                return ServeDecision(
                    status=200, outcome="cached", result=hit, cached=True,
                )

        # Gate 3: backpressure.
        with _tracing.span("serve.backpressure", cat="serve"):
            shed, why = self._backpressured()
        if shed:
            self.rejected_backpressure += 1
            rejections_metric().labels(reason="backpressure").inc()
            return ServeDecision(
                status=429, outcome="backpressure",
                retry_after_s=self._backpressure_retry_after(),
                reason=why,
            )

        # Execute.  The fill is stamped with the epoch read here: a
        # mutation landing while the miss runs must not have its
        # pre-mutation answer cached under the post-mutation epoch.
        epoch = self.cache.epoch
        try:
            with _tracing.span(
                "serve.execute", cat="serve", algorithm=algorithm
            ):
                result, queue_wait_s, latency_s = self.executor.execute_one(
                    query, algorithm=algorithm, pulling=pulling
                )
        except ReproError as exc:
            self.errors += 1
            return ServeDecision(
                status=400, outcome="bad_request", reason=str(exc)
            )
        except Exception as exc:  # engine bug: the request still answers
            self.errors += 1
            return ServeDecision(
                status=500, outcome="error",
                reason=f"{type(exc).__name__}: {exc}",
            )
        with self._lock:
            self._queue_waits.append((time.monotonic(), queue_wait_s))
        if key is not None:
            self.cache.put(key, result, epoch, query)
        self.served += 1
        return ServeDecision(
            status=200, outcome="ok", result=result,
            queue_wait_s=queue_wait_s, latency_s=latency_s,
        )

    def _finish(
        self, t0: float, tenant: str, decision: ServeDecision
    ) -> ServeDecision:
        elapsed = time.perf_counter() - t0
        label_tenant = self.tenant_labels.resolve(tenant)
        requests_metric().labels(
            tenant=label_tenant, outcome=decision.outcome
        ).inc()
        request_seconds_metric().labels(
            status=str(decision.status)
        ).observe(elapsed)
        tenant_seconds_metric().labels(tenant=label_tenant).observe(elapsed)
        self._update_gauges()
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                "request tenant=%s outcome=%s status=%d latency_ms=%.2f "
                "cached=%s",
                tenant, decision.outcome, decision.status, elapsed * 1e3,
                decision.cached,
            )
        return decision

    def _update_gauges(self) -> None:
        """Serve-state gauges for Prometheus/OpenMetrics scrapes."""
        reg = _metrics.registry()
        reg.gauge(
            "repro_serve_cache_hit_rate",
            "Result-cache hit rate since service start.",
        ).set(self.cache.hit_rate)
        reg.gauge(
            "repro_serve_tenant_table_size",
            "Distinct tenants with live quota buckets.",
        ).set(float(self.quotas.tenant_count()))
        reg.gauge(
            "repro_serve_shed_requests",
            "Requests shed by admission control since service start.",
        ).set(float(self.rejected_quota + self.rejected_backpressure))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Live service state for ``/stats/serve`` (strict JSON)."""
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "served": self.served,
            "errors": self.errors,
            "rejected": {
                "quota": self.rejected_quota,
                "backpressure": self.rejected_backpressure,
            },
            "executor": {
                "queue_depth": self.executor.queue_depth,
                "running": self.executor.running_count,
                "max_workers": self.executor.max_workers,
                "max_queue_depth": self.config.max_queue_depth,
                "queue_wait_p95_s": round(self.queue_wait_p95(), 6),
                "latency_slo_s": self.config.latency_slo_s,
            },
            "cache": self.cache.describe(),
            "quotas": self.quotas.describe(),
            "tenant_labels": {
                "limit": self.config.tenant_label_limit,
                "distinct": len(self.tenant_labels),
            },
        }

    def close(self) -> None:
        """Nothing to release: the executor is shared (its owner closes
        it) and the cache registers nothing on the live dataset."""
