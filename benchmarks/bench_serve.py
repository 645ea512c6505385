"""Serving-layer load bench: zipf multi-tenant traffic over HTTP.

Boots the real :class:`~repro.serve.http.ServeServer` (stdlib
ThreadingHTTPServer, keep-alive) over a synthetic world and replays
skewed multi-tenant traffic against ``/query`` with ``http.client``
keep-alive connections.  Three phases:

* **load** — every tenant, query keys drawn zipf(s) from a mixed
  stps/stds/iss pool (the serving-cache's design assumption: heavy
  query-key skew), plus a small unique-key tail share so the window
  keeps executing fresh queries instead of degenerating into a pure
  cache replay.  Reports sustained QPS, p50/p99, cache hit rate,
  admission rejections, and ``p99_slo_headroom`` = latency target
  (``ServeConfig.latency_slo_s``) / observed p99 (>= 1 means p99 is
  inside the target).

Before the timed window every distinct stds/iss key is replayed once
(untimed warm-up).  Those engines are the known-expensive slice — iss
influence scoring touches nearly every object, seconds per query — and
in steady-state serving their repeat-heavy keys live in the result
cache; the warm-up excludes their one-time cold-start from the
measurement, the same way any steady-state load bench excludes start-up
transients.  The cheap stps keys stay cold, so the window still pays
real execution costs for both the head (first touch per stps key) and
the unique tail.
* **solo** — the victim tenant's paced pattern running alone (warm
  cache), the fairness baseline.
* **quota** — an abusive tenant flooding against a clamped per-tenant
  quota while the victim repeats its solo pattern.  Reports the
  abuser's 429 count and ``victim_isolation`` =
  1.2 * solo p99 / victim p99 (>= 1 means the victim stayed within
  1.2x its solo latency).  Sub-5ms p99s are clamped to 5ms before the
  ratio: down there the numbers measure scheduler jitter, not tenant
  interference.

* **tracing** — an A/B overhead check of the tail-sampled request-trace
  store (:mod:`repro.obs.requests`): paired off/on rounds of cache-hit
  requests over one keep-alive connection with the store off vs. on
  (default tail-sampling config: spans collected per request, the
  1-in-N uniform sample exercising the record path), gated on the
  median of per-round p50 ratios so scheduler bursts — which inflate
  whole rounds, not sides — cancel; then one *slow-injected* request
  — a never-seen key sent with a known client ``traceparent`` — whose
  retention, keep reason and span tree (``serve.request`` →
  ``serve.execute`` → ``executor.query``) are recorded for the CI
  trace-smoke assertion.

The perf sentinel (:mod:`repro.obs.regress`) gates ``serve-load``
documents on ``sustained_qps`` (>= 100), ``cache_hit_rate`` (>= 0.5),
and both ratios (>= 1.0) in floor mode, with the usual 0.55x ratio rule
in matched mode.

Run::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import random
import socket
import statistics
import threading
import time
from pathlib import Path

from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.core.query import Variant
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.data.workload import WorkloadSpec, make_workload
from repro.obs import requests as _requests
from repro.serve.http import ServeServer
from repro.serve.quota import QuotaSpec
from repro.serve.service import QueryService, ServeConfig

#: p99s below this are clamped before fairness ratios (jitter floor).
P99_CLAMP_S = 0.005

#: The slow-injected request's client-donated trace id (W3C form).
INJECT_TRACE_ID = "feedfeedfeedfeedfeedfeedfeedfeed"

#: Paired off/on rounds in the tracing A/B phase; each round measures
#: both sides back to back so machine drift lands on both, and the
#: gate takes the median of per-round ratios.  More rounds = stabler
#: ratio (the phase is cheap: every request is a cache hit).
AB_ROUNDS = 10


def percentile(values: list[float], q: float) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def build_query_pool(feature_sets, args) -> list[dict]:
    """Mixed-engine pool entries: stps/stds range + iss influence.

    Each entry carries both the HTTP request ``body`` and the
    :class:`PreferenceQuery` it encodes (for direct warm-up through the
    service, bypassing HTTP).
    """
    spec = WorkloadSpec(
        n_queries=args.distinct_queries,
        k=args.k,
        radius=args.radius,
        seed=args.seed + 7,
    )
    queries = make_workload(feature_sets, spec)
    pool = []
    for i, query in enumerate(queries):
        # 50% stps / 40% stds / 10% iss — the iss slice re-targets the
        # influence variant (the only one that engine serves) and stays
        # small because each cold influence query costs seconds.
        slot = i % 10
        if slot < 5:
            algorithm, variant = "stps", Variant.RANGE
        elif slot < 9:
            algorithm, variant = "stds", Variant.RANGE
        else:
            algorithm, variant = "iss", Variant.INFLUENCE
        query = query.with_variant(variant)
        pool.append({
            "algorithm": algorithm,
            "query": query,
            "body": {
                "algorithm": algorithm,
                "k": query.k,
                "radius": query.radius,
                "lam": query.lam,
                "masks": list(query.keyword_masks),
                "variant": variant.value,
            },
        })
    return pool


def warm_expensive_keys(service, pool, workers: int) -> float:
    """Replay every distinct stds/iss key once through the service.

    Returns the wall time spent; runs before the timed window so the
    measured phases see the expensive engines' steady-state (cached)
    behavior rather than their one-time cold start.
    """
    entries = [e for e in pool if e["algorithm"] in ("stds", "iss")]
    t0 = time.perf_counter()
    lock = threading.Lock()
    cursor = iter(entries)

    def worker() -> None:
        while True:
            with lock:
                entry = next(cursor, None)
            if entry is None:
                return
            service.handle("warmup", entry["query"], entry["algorithm"])

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(max(1, workers))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0


class TrafficStats:
    """Thread-safe accumulator of per-request samples."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies_s: list[float] = []
        self.statuses: dict[int, int] = {}
        self.cached = 0
        self.transport_errors = 0

    def record(self, status: int, latency_s: float, cached: bool) -> None:
        with self.lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status == 200:
                self.latencies_s.append(latency_s)
                if cached:
                    self.cached += 1

    def ok(self) -> int:
        return self.statuses.get(200, 0)

    def count(self, status: int) -> int:
        return self.statuses.get(status, 0)

    def errors_5xx(self) -> int:
        return sum(
            n for status, n in self.statuses.items() if status >= 500
        )


class Traffic:
    """Request recipe for one client thread (owns no shared state).

    Bodies come from the zipf-weighted ``pool``; with probability
    ``tail_p`` the body is instead a fresh never-seen key (a cheap stps
    query with a unique ``lam``), modelling the unique tail of real
    traffic so the timed window keeps executing queries even after the
    head keys are all cached.
    """

    def __init__(
        self,
        pool: list[dict],
        weights: list[float],
        tenants: list[str],
        tenant_weights: list[float] | None = None,
        tail_p: float = 0.0,
    ) -> None:
        self.pool = pool
        self.weights = weights
        self.tenants = tenants
        self.tenant_weights = tenant_weights
        self.tail_p = tail_p

    def next_request(self, rng: random.Random) -> dict:
        if self.tail_p and rng.random() < self.tail_p:
            base = dict(rng.choices(self.pool, self.weights)[0]["body"])
            base["algorithm"] = "stps"
            base["variant"] = Variant.RANGE.value
            # A unique lam makes a unique cache key without changing
            # the query's cost profile.
            base["lam"] = round(rng.random(), 9)
            body = base
        else:
            body = dict(rng.choices(self.pool, self.weights)[0]["body"])
        if self.tenant_weights is None:
            body["tenant"] = self.tenants[0]
        else:
            body["tenant"] = rng.choices(
                self.tenants, self.tenant_weights
            )[0]
        return body


class Client(threading.Thread):
    """One keep-alive connection replaying a traffic recipe.

    ``pace_s`` > 0 inserts a fixed think time between requests (the
    paced victim pattern); 0 means closed-loop as-fast-as-possible.
    """

    def __init__(
        self,
        port: int,
        traffic: Traffic,
        stats: TrafficStats,
        deadline: float,
        seed: int,
        pace_s: float = 0.0,
    ) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.traffic = traffic
        self.stats = stats
        self.deadline = deadline
        self.rng = random.Random(seed)
        self.pace_s = pace_s

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        conn.connect()
        # POSTs are two small writes (headers, body); without NODELAY
        # the second waits on the delayed ACK of the first (~40 ms).
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def run(self) -> None:
        conn = self._connect()
        try:
            while time.perf_counter() < self.deadline:
                payload = json.dumps(self.traffic.next_request(self.rng))
                t0 = time.perf_counter()
                try:
                    conn.request(
                        "POST", "/query", body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    doc = json.loads(resp.read() or b"{}")
                    status = resp.status
                except (http.client.HTTPException, OSError):
                    self.stats.transport_errors += 1
                    conn.close()
                    conn = self._connect()
                    continue
                self.stats.record(
                    status,
                    time.perf_counter() - t0,
                    bool(doc.get("cached")),
                )
                if self.pace_s:
                    time.sleep(self.pace_s)
        finally:
            conn.close()


def drive(
    port: int,
    duration_s: float,
    clients: int,
    traffic: Traffic,
    seed: int,
    pace_s: float = 0.0,
) -> tuple[TrafficStats, float]:
    """Run ``clients`` threads until the deadline; (stats, elapsed)."""
    stats = TrafficStats()
    t0 = time.perf_counter()
    threads = [
        Client(port, traffic, stats, t0 + duration_s, seed + i, pace_s)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return stats, time.perf_counter() - t0


def tracing_phase(port: int, pool: list[dict], args) -> dict:
    """A/B trace-store overhead plus one slow-injected retained trace.

    Runs against the live server over a single keep-alive connection.
    Leaves the trace store disabled (its process-default state) when
    done, whatever happens mid-phase.
    """
    entry = next(e for e in pool if e["algorithm"] == "stps")
    body = dict(entry["body"])
    body["tenant"] = "trace-ab"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def once(payload: dict, headers: dict | None = None):
        t0 = time.perf_counter()
        conn.request(
            "POST", "/query", body=json.dumps(payload),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        resp = conn.getresponse()
        doc = json.loads(resp.read() or b"{}")
        return time.perf_counter() - t0, resp, doc

    try:
        once(body)  # warm the cache key and the connection
        # Paired off/on rounds over the cache-hit path: the cheapest
        # requests the service answers, hence the path where
        # per-request tracing overhead is proportionally largest.
        # "On" runs the store's default tail-sampling config — spans
        # are collected for every request (the tail decision needs
        # them) and the uniform 1-in-N sample exercising the record
        # path — i.e. the overhead a deployment actually pays.  The
        # gate statistic is the *median of per-round p50 ratios*: a
        # scheduler burst inflates both sides of the round it lands
        # in, and the median discards rounds it distorts anyway —
        # essential on small shared machines.
        off: list[float] = []
        on: list[float] = []
        round_ratios: list[float] = []
        for _ in range(AB_ROUNDS):
            round_p50 = {}
            for traced in (False, True):
                _requests.configure(
                    enabled_=traced,
                    max_bytes=_requests.DEFAULT_MAX_BYTES,
                    slow_threshold_s=_requests.DEFAULT_SLOW_THRESHOLD_S,
                    uniform_every=_requests.DEFAULT_UNIFORM_EVERY,
                )
                samples = []
                for _ in range(args.trace_ab_requests):
                    latency, _, _ = once(body)
                    samples.append(latency)
                round_p50[traced] = percentile(samples, 0.50)
                (on if traced else off).extend(samples)
            if round_p50[False] > 0:
                round_ratios.append(round_p50[True] / round_p50[False])
        off_p50 = percentile(off, 0.50)
        on_p50 = percentile(on, 0.50)
        overhead_ratio = (
            statistics.median(round_ratios) if round_ratios else math.nan
        )

        # Slow injection: a never-seen key (unique lam → cache miss →
        # real execution) sent with a known client traceparent.  With
        # the store's threshold at 0 tail sampling must classify it
        # "slow" and retain it with its full span tree.  One retry on a
        # fresh connection absorbs a transient client-read timeout on a
        # shared machine; the retry's key is already cached, but the
        # first attempt's trace (the miss) is what the store retained.
        _requests.configure(enabled_=True, slow_threshold_s=0.0)
        _requests.clear()
        inject = dict(entry["body"])
        inject["tenant"] = "trace-slow"
        inject["lam"] = 0.123456789
        inject_headers = {
            "traceparent": f"00-{INJECT_TRACE_ID}-00f067aa0ba902b7-01"
        }
        try:
            _, resp, doc = once(inject, headers=inject_headers)
        except (TimeoutError, OSError, http.client.HTTPException):
            conn.close()
            conn = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=30
            )
            conn.connect()
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            # A fresh never-seen key: the first attempt may have
            # finished server-side and cached its result, and the
            # store returns the *newest* trace per id — the retry must
            # be a miss too, or its hit-trace (no execute spans) would
            # shadow the first attempt's complete tree.
            inject["lam"] = 0.987654321
            _, resp, doc = once(inject, headers=inject_headers)
        echoed = _requests.parse_traceparent(
            resp.headers.get("traceparent")
        )
        trace = _requests.get(INJECT_TRACE_ID)
        span_names = sorted(
            {s["name"] for s in trace.spans}
        ) if trace is not None else []
        complete_tree = {
            "serve.request", "serve.execute", "executor.query",
        } <= set(span_names)
        store_stats = _requests.stats()
    finally:
        conn.close()
        _requests.configure(
            enabled_=False,
            slow_threshold_s=_requests.DEFAULT_SLOW_THRESHOLD_S,
        )
        _requests.clear()

    return {
        "ab_requests_per_side_per_round": args.trace_ab_requests,
        "ab_rounds": AB_ROUNDS,
        "untraced_p50_ms": round(off_p50 * 1e3, 4),
        "traced_p50_ms": round(on_p50 * 1e3, 4),
        "overhead_ratio": round(overhead_ratio, 4),
        "overhead_within_budget": bool(overhead_ratio <= 1.05),
        "slow_injected": {
            "trace_id": INJECT_TRACE_ID,
            "status": resp.status,
            "trace_id_echoed": bool(
                echoed is not None and echoed[0] == INJECT_TRACE_ID
            ),
            "response_trace_id": doc.get("trace_id"),
            "retained": trace is not None,
            "keep_reason": trace.keep_reason if trace else None,
            "span_names": span_names,
            "complete_tree": complete_tree,
        },
        "store": store_stats,
    }


def bench(args) -> dict:
    objects = synthetic_objects(args.objects, seed=args.seed)
    feature_sets = synthetic_feature_sets(
        args.sets, args.features, args.vocab, seed=args.seed + 1
    )
    processor = QueryProcessor.build(objects, feature_sets, index="srt")
    pool = build_query_pool(feature_sets, args)
    weights = zipf_weights(len(pool), args.zipf_s)
    tenants = [f"tenant-{i:02d}" for i in range(args.tenants)]
    tenant_weights = zipf_weights(len(tenants), args.zipf_s)

    config = ServeConfig()
    latency_target_s = config.latency_slo_s

    executor = QueryExecutor(processor, max_workers=args.workers)
    service = QueryService(executor, config)
    server = ServeServer(service, port=0).start()
    try:
        warmup_s = warm_expensive_keys(service, pool, args.workers)

        # ------------------------------------------------------ load --
        load_traffic = Traffic(
            pool, weights, tenants, tenant_weights, tail_p=args.tail_p
        )
        load_stats, load_elapsed = drive(
            server.port, args.load_s, args.clients, load_traffic,
            seed=args.seed + 13,
        )
        ok = load_stats.ok()
        p50 = percentile(load_stats.latencies_s, 0.50)
        p99 = percentile(load_stats.latencies_s, 0.99)
        hit_rate = load_stats.cached / ok if ok else 0.0
        load_doc = {
            "warmup_s": round(warmup_s, 3),
            "duration_s": round(load_elapsed, 3),
            "requests_ok": ok,
            "sustained_qps": round(ok / load_elapsed, 1),
            "p50_ms": round(p50 * 1e3, 3),
            "p99_ms": round(p99 * 1e3, 3),
            "p99_slo_headroom": round(latency_target_s / p99, 2),
            "cache_hit_rate": round(hit_rate, 4),
            "rejections": {
                "quota": service.rejected_quota,
                "backpressure": service.rejected_backpressure,
            },
            "errors_5xx": load_stats.errors_5xx(),
            "transport_errors": load_stats.transport_errors,
        }

        # ------------------------------------------------------ solo --
        # The victim's paced pattern alone (cache is warm from the load
        # phase, as it will be in the quota phase — a fair baseline).
        victim_traffic = Traffic(pool, weights, ["victim"])
        solo_stats, _ = drive(
            server.port, args.solo_s, args.victim_clients, victim_traffic,
            seed=args.seed + 17, pace_s=args.victim_pace_s,
        )
        solo_p99 = percentile(solo_stats.latencies_s, 0.99)

        # ----------------------------------------------------- quota --
        service.quotas.set_override(
            "abuser", QuotaSpec(rate=args.abuser_rate, burst=args.abuser_rate)
        )
        abuser_traffic = Traffic(pool, weights, ["abuser"])
        quota_stats = TrafficStats()
        victim_stats = TrafficStats()
        t0 = time.perf_counter()
        deadline = t0 + args.quota_s
        threads = [
            Client(
                server.port, abuser_traffic, quota_stats, deadline,
                seed=args.seed + 19 + i,
            )
            for i in range(args.abuser_clients)
        ] + [
            Client(
                server.port, victim_traffic, victim_stats, deadline,
                seed=args.seed + 17 + i, pace_s=args.victim_pace_s,
            )
            for i in range(args.victim_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        victim_p99 = percentile(victim_stats.latencies_s, 0.99)
        isolation = (
            1.2 * max(solo_p99, P99_CLAMP_S) / max(victim_p99, P99_CLAMP_S)
        )
        quota_doc = {
            "abuser_rate_limit": args.abuser_rate,
            "abuser_requests": sum(quota_stats.statuses.values()),
            "abuser_429s": quota_stats.count(429),
            "abuser_ok": quota_stats.ok(),
            "victim_requests_ok": victim_stats.ok(),
            "victim_429s": victim_stats.count(429),
            "solo_p99_ms": round(solo_p99 * 1e3, 3),
            "victim_p99_ms": round(victim_p99 * 1e3, 3),
            "victim_isolation": round(isolation, 2),
        }
        # --------------------------------------------------- tracing --
        tracing_doc = tracing_phase(server.port, pool, args)
        serve_state = service.describe()
    finally:
        server.close()
        executor.close()

    return {
        "benchmark": "serve-load",
        "config": {
            "objects": args.objects,
            "features_per_set": args.features,
            "feature_sets": args.sets,
            "vocabulary": args.vocab,
            "distinct_queries": args.distinct_queries,
            "zipf_s": args.zipf_s,
            "tail_p": args.tail_p,
            "tenants": args.tenants,
            "clients": args.clients,
            "load_s": args.load_s,
            "solo_s": args.solo_s,
            "quota_s": args.quota_s,
            "latency_target_s": latency_target_s,
            "workers": args.workers,
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "load": load_doc,
        "quota": quota_doc,
        "tracing": tracing_doc,
        "cache": serve_state["cache"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="seconds-scale run")
    parser.add_argument("--out", type=Path, default=Path("BENCH_serve.json"))
    parser.add_argument("--objects", type=int, default=20_000)
    parser.add_argument("--features", type=int, default=10_000)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--vocab", type=int, default=64)
    parser.add_argument("--distinct-queries", type=int, default=200)
    parser.add_argument("--zipf-s", type=float, default=1.1)
    parser.add_argument("--tail-p", type=float, default=0.05)
    parser.add_argument("--tenants", type=int, default=20)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--radius", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--load-s", type=float, default=20.0)
    parser.add_argument("--solo-s", type=float, default=5.0)
    parser.add_argument("--quota-s", type=float, default=10.0)
    parser.add_argument("--victim-clients", type=int, default=2)
    parser.add_argument("--victim-pace-s", type=float, default=0.01)
    parser.add_argument("--abuser-clients", type=int, default=2)
    parser.add_argument("--abuser-rate", type=float, default=20.0)
    parser.add_argument(
        "--trace-ab-requests", type=int, default=50,
        help="requests per side per round in the tracing-overhead phase",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.objects = min(args.objects, 4000)
        args.features = min(args.features, 2000)
        args.distinct_queries = min(args.distinct_queries, 50)
        args.clients = min(args.clients, 4)
        args.load_s = min(args.load_s, 8.0)
        args.solo_s = min(args.solo_s, 3.0)
        args.quota_s = min(args.quota_s, 5.0)

    payload = bench(args)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    load, quota = payload["load"], payload["quota"]
    print(f"wrote {args.out}")
    print(
        f"  load : {load['sustained_qps']:.0f} qps sustained over "
        f"{load['duration_s']:.1f}s  p50 {load['p50_ms']:.2f}ms / "
        f"p99 {load['p99_ms']:.2f}ms (headroom "
        f"{load['p99_slo_headroom']:.1f}x)  cache hit rate "
        f"{load['cache_hit_rate']:.0%}  rejections {load['rejections']}  "
        f"5xx {load['errors_5xx']}"
    )
    print(
        f"  quota: abuser {quota['abuser_429s']}/{quota['abuser_requests']} "
        f"429s at {quota['abuser_rate_limit']:.0f} rps cap  victim p99 "
        f"{quota['victim_p99_ms']:.2f}ms vs solo {quota['solo_p99_ms']:.2f}ms "
        f"(isolation {quota['victim_isolation']:.2f}, >=1 passes)"
    )
    tracing = payload["tracing"]
    injected = tracing["slow_injected"]
    print(
        f"  trace: overhead {tracing['overhead_ratio']:.3f}x "
        f"(p50 {tracing['untraced_p50_ms']:.3f}ms -> "
        f"{tracing['traced_p50_ms']:.3f}ms, <=1.05 passes)  "
        f"slow-injected retained={injected['retained']} "
        f"complete_tree={injected['complete_tree']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
