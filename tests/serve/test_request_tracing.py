"""End-to-end request tracing through the serving path.

The acceptance test for the tracing tentpole: one client-supplied W3C
``traceparent`` id must be observable in the HTTP response header, the
tail-sampled trace store's span tree, the flight recorder and a
histogram exemplar — all joined on the same id.  Plus
the per-tenant observability pieces that ride along: label-cardinality
capping, serve gauges, and the ``/traces.json`` endpoint.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.executor import QueryExecutor
from repro.core.query import PreferenceQuery
from repro.core.results import QueryResult, QueryStats, ResultItem
from repro.obs import flight as _flight
from repro.obs import metrics as _metrics
from repro.obs import requests as _requests
from repro.serve.http import ServeServer
from repro.serve.quota import QuotaSpec
from repro.serve.service import (
    OVERFLOW_TENANT,
    QueryService,
    ServeConfig,
)

#: A client-donated trace id (32 lowercase hex, as the wire carries it).
CLIENT_TRACE_ID = "00000000deadbeef1234cafe5678feed"
CLIENT_TRACEPARENT = f"00-{CLIENT_TRACE_ID}-00f067aa0ba902b7-01"


def post(url: str, payload: dict, headers: dict | None = None):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, dict(resp.headers), json.load(resp)


def body_for(query: PreferenceQuery, tenant: str = "t", **extra) -> dict:
    return {
        "tenant": tenant, "k": query.k, "radius": query.radius,
        "lam": query.lam, "masks": list(query.keyword_masks), **extra,
    }


@pytest.fixture(scope="module")
def served(srt_processor):
    with QueryExecutor(srt_processor, max_workers=2) as executor:
        service = QueryService(
            executor,
            ServeConfig(
                quota_overrides={"throttled": QuotaSpec(rate=1, burst=1)}
            ),
        )
        with ServeServer(service, port=0) as server:
            yield service, f"http://127.0.0.1:{server.port}"


@pytest.fixture
def observability():
    """The full tracing stack, torn back down afterwards.

    ``slow_threshold_s=0.0`` makes every completed request "interesting"
    so tail sampling keeps all of them, engine query records included.
    """
    _requests.configure(
        enabled_=True, max_bytes=_requests.DEFAULT_MAX_BYTES,
        slow_threshold_s=0.0, uniform_every=_requests.DEFAULT_UNIFORM_EVERY,
    )
    _requests.clear()
    previous_exemplars = _metrics.set_exemplars(True)
    yield
    _metrics.set_exemplars(previous_exemplars)
    _requests.configure(
        enabled_=False,
        slow_threshold_s=_requests.DEFAULT_SLOW_THRESHOLD_S,
    )
    _requests.clear()


class TestOneTraceIdEverywhere:
    def test_client_trace_id_joins_every_signal(
        self, served, observability
    ):
        _, base = served
        query = PreferenceQuery(3, 0.21, 0.5, (0xFF, 0xFF))
        status, headers, doc = post(
            base + "/query", body_for(query, tenant="acme"),
            headers={"traceparent": CLIENT_TRACEPARENT},
        )
        assert status == 200

        # 1. The response propagates the client's trace id in W3C form.
        parsed = _requests.parse_traceparent(headers["traceparent"])
        assert parsed is not None and parsed[0] == CLIENT_TRACE_ID
        assert doc["trace_id"] == CLIENT_TRACE_ID
        assert doc["stats"]["trace_id"] == CLIENT_TRACE_ID

        # 2. The trace store holds the request with its full span tree:
        # the admission waterfall plus the executor hop.
        trace = _requests.get(CLIENT_TRACE_ID)
        assert trace is not None
        assert trace.tenant == "acme"
        assert trace.outcome == "ok"
        names = {s["name"] for s in trace.spans}
        assert {
            "serve.request", "serve.quota", "serve.cache",
            "serve.backpressure", "serve.execute", "executor.query",
        } <= names

        # 3. The flight recorder admitted the engine query under the id.
        flight_ids = {r.trace_id for r in _flight.records()}
        assert CLIENT_TRACE_ID in flight_ids

        # 4. A latency-histogram exemplar resolves to the same request.
        exemplar_ids = {
            trace_id
            for _, child in _metrics.registry().get(
                "repro_serve_request_seconds"
            ).series()
            for _, _, trace_id, _ in child.exemplars()
        }
        assert CLIENT_TRACE_ID in exemplar_ids

    def test_served_record_says_what_the_query_did(
        self, served, observability
    ):
        """No ``explain`` needed: the slow-kept request's stored engine
        record carries the plan's counts in its one digest."""
        _, base = served
        query = PreferenceQuery(3, 0.24, 0.5, (0xFF, 0xFF))
        _, _, doc = post(base + "/query", body_for(query, algorithm="stps"))
        trace = _requests.get(doc["trace_id"])
        assert trace is not None and trace.keep_reason == "slow"
        (record,) = trace.records
        counters = record.to_dict()["counters"]
        assert counters["pull_rounds"] > 0
        assert counters["rejected_2r"] >= 0
        assert counters["objects_dropped"] == 0
        assert counters["nodes_visited[0]"] + counters["nodes_visited[1]"] == (
            counters["nodes_expanded"]
        ) > 0
        assert "nodes_pruned[0]" in counters

    def test_minted_id_when_client_sends_none(self, served, observability):
        _, base = served
        query = PreferenceQuery(4, 0.22, 0.5, (0xFF, 0xFF))
        _, headers, doc = post(base + "/query", body_for(query))
        parsed = _requests.parse_traceparent(headers["traceparent"])
        assert parsed is not None
        assert _requests.w3c_trace_id(doc["trace_id"]) == parsed[0]

    def test_malformed_traceparent_falls_back_to_minted_id(
        self, served, observability
    ):
        _, base = served
        query = PreferenceQuery(5, 0.23, 0.5, (0xFF, 0xFF))
        _, headers, doc = post(
            base + "/query", body_for(query),
            headers={"traceparent": "00-XYZ-nope-01"},
        )
        parsed = _requests.parse_traceparent(headers["traceparent"])
        assert parsed is not None
        assert parsed[0] != "xyz"
        assert doc["trace_id"]  # a fresh service-minted id


class TestRejectionTracing:
    def test_429_is_traced_and_flight_recorded(
        self, served, observability
    ):
        _, base = served
        query = PreferenceQuery(6, 0.24, 0.5, (0xFF, 0xFF))
        payload = body_for(query, tenant="throttled")
        first, _, _ = post(base + "/query", payload)
        assert first == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", payload)
        assert excinfo.value.code == 429
        doc = json.load(excinfo.value)
        trace_id = doc["trace_id"]
        assert _requests.parse_traceparent(
            excinfo.value.headers["traceparent"]
        )[0] == _requests.w3c_trace_id(trace_id)

        # Tail sampling classifies shed requests as always-keep.
        trace = _requests.get(trace_id)
        assert trace is not None
        assert trace.keep_reason == "shed"
        assert trace.outcome == "quota"
        names = {s["name"] for s in trace.spans}
        assert "serve.quota" in names
        assert "serve.execute" not in names  # rejected before execution

        # The flight record names the tenant and the gate that shed it.
        rejection = next(
            r for r in _flight.records() if r.trace_id == trace_id
        )
        assert rejection.tenant == "throttled"
        assert rejection.decision == "quota"
        assert rejection.error is None


class TestTracesEndpoint:
    def test_filters_by_tenant_id_and_latency(self, served, observability):
        _, base = served
        fast = PreferenceQuery(7, 0.25, 0.5, (0xFF, 0xFF))
        status, _, doc = post(
            base + "/query", body_for(fast, tenant="filter-me")
        )
        assert status == 200
        trace_id = doc["trace_id"]

        def fetch(params: str) -> dict:
            with urllib.request.urlopen(
                base + "/traces.json" + params
            ) as resp:
                return json.load(resp)

        by_tenant = fetch("?tenant=filter-me")
        assert [t["trace_id"] for t in by_tenant["traces"]] == [trace_id]
        by_id = fetch(f"?trace_id={trace_id}")
        assert [t["trace_id"] for t in by_id["traces"]] == [trace_id]
        assert by_id["traces"][0]["spans"]
        assert fetch("?tenant=filter-me&min_ms=60000")["traces"] == []
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch("?min_ms=banana")
        assert excinfo.value.code == 400


class _StubExecutor:
    """Minimal executor double for offline admission tests."""

    max_workers = 1
    queue_depth = 0
    running_count = 0

    def execute_one(self, query, algorithm="stps", pulling="prioritized"):
        result = QueryResult([ResultItem(1, 0.5, 0.1, 0.2)], QueryStats())
        return result, 0.0, 0.001


QUERY = PreferenceQuery(3, 0.1, 0.5, (0b111, 0b101))


class TestTenantCardinality:
    def test_overflow_tenants_fold_into_shared_label(self):
        with _metrics.scoped_registry() as reg:
            service = QueryService(
                _StubExecutor(),
                ServeConfig(tenant_label_limit=2, cache_enabled=False),
            )
            for tenant in ("a", "b", "c", "d", "a"):
                assert service.handle(tenant, QUERY).status == 200
            series = {
                lv: c.value
                for lv, c in reg.get(
                    "repro_serve_requests_total"
                ).series()
            }
        assert series == {
            ("a", "ok"): 2.0, ("b", "ok"): 1.0,
            (OVERFLOW_TENANT, "ok"): 2.0,
        }
        assert service.describe()["tenant_labels"] == {
            "limit": 2, "distinct": 2,
        }

    def test_histogram_shares_the_cap(self):
        with _metrics.scoped_registry() as reg:
            service = QueryService(
                _StubExecutor(),
                ServeConfig(tenant_label_limit=1, cache_enabled=False),
            )
            for tenant in ("one", "two", "three"):
                service.handle(tenant, QUERY)
            labels = {
                lv[0]
                for lv, _ in reg.get(
                    "repro_serve_tenant_seconds"
                ).series()
            }
        assert labels == {"one", OVERFLOW_TENANT}


class TestServeGauges:
    def test_registry_gauges_track_service_state(self):
        with _metrics.scoped_registry() as reg:
            service = QueryService(
                _StubExecutor(),
                ServeConfig(default_quota=QuotaSpec(rate=1, burst=1)),
            )
            assert service.handle("g1", QUERY).status == 200
            assert service.handle("g1", QUERY).status == 429  # quota shed
            assert service.handle("g2", QUERY).cached
            gauges = {
                name: reg.get(name).value
                for name in (
                    "repro_serve_cache_hit_rate",
                    "repro_serve_tenant_table_size",
                    "repro_serve_shed_requests",
                )
            }
        assert gauges["repro_serve_cache_hit_rate"] == pytest.approx(
            service.cache.hit_rate
        )
        assert gauges["repro_serve_tenant_table_size"] == 2.0
        assert gauges["repro_serve_shed_requests"] == 1.0
