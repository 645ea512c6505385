"""End-to-end tests of the HTTP front end (:mod:`repro.serve.http`).

Real sockets against an ephemeral-port :class:`ServeServer`; the
observability routes inherited from the metrics handler are exercised on
the same listener, as deployed.
"""

from __future__ import annotations

import json
import math
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core.executor import QueryExecutor
from repro.core.query import PreferenceQuery
from repro.obs import tracing
from repro.obs.export import (
    CONTENT_TYPE_OPENMETRICS,
    CONTENT_TYPE_PROMETHEUS,
    MetricsServer,
)
from repro.obs.metrics import MetricsRegistry, enabled_exemplars
from repro.serve.http import ServeServer, parse_request
from repro.serve.quota import QuotaSpec
from repro.serve.service import QueryService, ServeConfig

QUERY = PreferenceQuery(5, 0.25, 0.5, (0xFF, 0xFF))


def post(url: str, payload: dict):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.load(resp)


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


class TestParseRequest:
    def test_round_trip(self):
        tenant, query, algorithm, pulling = parse_request(
            body_for(QUERY, tenant="acme", algorithm="stds",
                     pulling="round_robin", variant="range")
        )
        assert tenant == "acme"
        assert query == QUERY
        assert (algorithm, pulling) == ("stds", "round_robin")

    def test_masks_accept_comma_separated_string(self):
        _, query, _, _ = parse_request(
            {"k": "5", "radius": "0.25", "lam": "0.5", "masks": "255,255"}
        )
        assert query == QUERY

    @pytest.mark.parametrize("broken", [
        {},                                                  # all missing
        {"k": 5, "radius": 0.25, "lam": 0.5},                # no masks
        {"k": 5, "radius": 0.25, "lam": 0.5, "masks": []},
        {"k": 5, "radius": 0.25, "lam": 0.5, "masks": ["x"]},
        {"k": "??", "radius": 0.25, "lam": 0.5, "masks": [1]},
        {"k": 5, "radius": 0.25, "lam": 0.5, "masks": [1],
         "variant": "bogus"},
        {"k": 2.7, "radius": 0.25, "lam": 0.5, "masks": [1]},  # not k=2
        {"k": True, "radius": 0.25, "lam": 0.5, "masks": [1]},  # not k=1
        {"k": float("inf"), "radius": 0.25, "lam": 0.5, "masks": [1]},
        {"k": 5, "radius": "nan", "lam": 0.5, "masks": [1]},
        {"k": 5, "radius": "inf", "lam": 0.5, "masks": [1]},
    ])
    def test_malformed_raises(self, broken):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            parse_request(broken)

    @pytest.mark.parametrize("field", [
        {"masks": [2.7, 1]},       # not mask 2
        {"masks": [True, 1]},      # not mask 1
        {"masks": [float("inf")]},
        {"radius": True},          # not radius 1.0
        {"lam": True},             # not lam 1.0
        {"lam": False},            # not lam 0.0
    ], ids=["masks=2.7", "masks=true", "masks=inf", "radius=true",
            "lam=true", "lam=false"])
    def test_json_bools_and_fractional_masks_are_not_coerced(self, field):
        """``int()`` / ``float()`` would serve these as other queries."""
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            parse_request(body_for(QUERY, **field))

    def test_integral_float_masks_are_masks(self):
        _, query, _, _ = parse_request(body_for(QUERY, masks=[255.0, 255]))
        assert query == QUERY


class TestQueryEndpoint:
    def test_post_then_cached_get(self, served, srt_processor):
        service, base = served
        status, doc = post(base + "/query", body_for(QUERY))
        assert status == 200 and not doc["cached"]
        expected = srt_processor.query(QUERY)
        assert [item["oid"] for item in doc["items"]] == expected.oids
        query_string = (
            f"tenant=t2&k={QUERY.k}&radius={QUERY.radius}&lam={QUERY.lam}"
            f"&masks=" + ",".join(map(str, QUERY.keyword_masks))
        )
        with urllib.request.urlopen(
            base + "/query?" + query_string
        ) as resp:
            doc = json.load(resp)
        assert doc["cached"]  # same canonical signature, other tenant

    def test_bad_request_is_400_with_reason(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/query?k=5")
        assert excinfo.value.code == 400
        assert "missing" in json.load(excinfo.value)["error"]

    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    @pytest.mark.parametrize(
        "field", [
            {"radius": "nan"}, {"radius": "inf"}, {"k": 2.7},
            {"masks": [2.7, True]}, {"radius": True, "lam": True},
        ],
        ids=["radius=nan", "radius=inf", "k=2.7", "masks=2.7,true",
             "radius,lam=true"],
    )
    def test_unanswerable_numbers_are_400_for_every_engine(
        self, served, algorithm, field
    ):
        """These used to depend on the engine: ``radius=nan`` was a 500
        through STPS, ``radius=inf`` a 500 through STDS and a 200 through
        STPS; a JSON ``k`` of 2.7 was served as ``k=2``, masks
        ``[2.7, true]`` as ``(2, 1)`` and ``true`` radius / lam as 1.0."""
        _, base = served
        payload = body_for(QUERY, tenant="t3", algorithm=algorithm, **field)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", payload)
        assert excinfo.value.code == 400

    def test_quota_429_carries_retry_after(self, served):
        _, base = served
        payload = body_for(QUERY, tenant="throttled")
        first, _ = post(base + "/query", payload)
        assert first == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", payload)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        assert json.load(excinfo.value)["retry_after_s"] > 0

    @pytest.mark.parametrize("content_length, status", [
        ("-1", 400),  # would have been rfile.read(-1): a 5 s stall
        ("banana", 400),
        (str((1 << 20) + 1), 413),  # refused before any body is read
    ])
    def test_content_length_is_checked_before_reading(
        self, served, content_length, status
    ):
        _, base = served
        host, port = base.removeprefix("http://").split(":")
        t0 = time.perf_counter()
        with socket.create_connection((host, int(port)), timeout=3) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {content_length}\r\n\r\n".encode()
            )
            # Read to EOF: the unread body makes the connection
            # unusable, so the server must close it after replying.
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply
        # Answered at once, not after the handler's socket timeout.
        assert time.perf_counter() - t0 < 2.0

    def test_unknown_post_path_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/nope", {})
        assert excinfo.value.code == 404


class TestMountedObservability:
    def test_stats_serve(self, served):
        service, base = served
        with urllib.request.urlopen(base + "/stats/serve") as resp:
            doc = json.load(resp)
        assert doc["served"] == service.served
        assert "cache" in doc and "quotas" in doc

    def test_metrics_scrape_includes_serve_families(self, served):
        _, base = served
        with urllib.request.urlopen(base + "/metrics") as resp:
            text = resp.read().decode()
        assert "repro_serve_requests_total" in text
        assert "repro_serve_cache_total" in text

    def test_healthz(self, served):
        _, base = served
        with urllib.request.urlopen(base + "/healthz") as resp:
            assert resp.status == 200


@pytest.fixture()
def service(srt_processor):
    with QueryExecutor(srt_processor, max_workers=1) as executor:
        yield QueryService(executor, ServeConfig())


def get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read()


class TestObsRoutes:
    """The routes a ``ServeServer`` inherits from ``MetricsServer``."""

    @pytest.mark.parametrize("path", [
        "/metrics", "/openmetrics", "/metrics.json", "/healthz",
        "/flight.json", "/traces.json",
    ])
    def test_answers_200(self, served, path):
        _, base = served
        assert get(base + path)[0] == 200

    @pytest.mark.parametrize(
        "path", ["/timeseries.json", "/dashboard", "/flamegraph.txt"]
    )
    def test_console_routes_are_404(self, served, path):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(base + path)
        assert excinfo.value.code == 404

    def test_exposition_bytes_unchanged(self, service, monkeypatch):
        """Both text formats come out of one registry walk; these are the
        bytes the two separate renderers produced before it."""
        reg = MetricsRegistry()
        queries = reg.counter(
            "repro_queries_total", "Queries executed.", ("algorithm",)
        )
        queries.labels(algorithm="stps").inc(3)
        queries.labels(algorithm='say "hi"\nback\\slash').inc(1)
        reg.gauge("repro_cache_pages", "Buffered pages.\nTwo lines.").set(42)
        reg.gauge("repro_unbounded").set(math.inf)
        latency = reg.histogram(
            "repro_query_seconds", "Latency.", ("algorithm",),
            buckets=[0.01, 0.1, 1.0],
        ).labels(algorithm="stps")
        for value in (0.005, 0.5, 5.0):
            latency.observe(value)
        with monkeypatch.context() as patch, enabled_exemplars():
            patch.setattr(time, "time", lambda: 1700000000.25)
            with tracing.trace_scope("tr-golden"):
                latency.observe(0.05)
        with ServeServer(service, port=0, registry=reg) as server:
            base = f"http://127.0.0.1:{server.port}"
            assert get(base + "/metrics") == (
                200, CONTENT_TYPE_PROMETHEUS, GOLDEN_PROMETHEUS.encode()
            )
            assert get(base + "/openmetrics") == (
                200, CONTENT_TYPE_OPENMETRICS, GOLDEN_OPENMETRICS.encode()
            )


_GOLDEN_HEAD = (
    '# HELP repro_cache_pages Buffered pages.\\nTwo lines.\n'
    '# TYPE repro_cache_pages gauge\n'
    'repro_cache_pages 42.0\n'
    '# HELP repro_queries_total Queries executed.\n'
    '# TYPE repro_queries_total counter\n'
    'repro_queries_total{algorithm="say \\"hi\\"\\nback\\\\slash"} 1.0\n'
    'repro_queries_total{algorithm="stps"} 3.0\n'
    '# HELP repro_query_seconds Latency.\n'
    '# TYPE repro_query_seconds histogram\n'
    'repro_query_seconds_bucket{algorithm="stps",le="0.01"} 1\n'
    'repro_query_seconds_bucket{algorithm="stps",le="0.1"} 2'
)
_GOLDEN_TAIL = (
    '\nrepro_query_seconds_bucket{algorithm="stps",le="1.0"} 3\n'
    'repro_query_seconds_bucket{algorithm="stps",le="+Inf"} 4\n'
    'repro_query_seconds_sum{algorithm="stps"} 5.555\n'
    'repro_query_seconds_count{algorithm="stps"} 4\n'
    '# TYPE repro_unbounded gauge\n'
    'repro_unbounded +Inf\n'
)
GOLDEN_PROMETHEUS = _GOLDEN_HEAD + _GOLDEN_TAIL
GOLDEN_OPENMETRICS = (
    _GOLDEN_HEAD + ' # {trace_id="tr-golden"} 0.05 1700000000.250'
    + _GOLDEN_TAIL + "# EOF\n"
)


class TestLifecycle:
    @pytest.mark.parametrize(
        "server_cls", [MetricsServer, ServeServer], ids=lambda c: c.__name__
    )
    def test_close_is_prompt_despite_half_open_client(
        self, service, server_cls
    ):
        """A connected client that never sends a request line must not
        wedge close(): the listener shuts before the join and handler
        threads are daemonic with a socket timeout, so close() returns
        in well under the 5s join bound."""
        args = (service,) if server_cls is ServeServer else ()
        server = server_cls(*args, port=0).start()
        # Half-open client: connects, never sends a request line.
        stuck = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            time.sleep(0.05)  # let the server accept it
            t0 = time.perf_counter()
            server.close()
            assert time.perf_counter() - t0 < 2.0
        finally:
            stuck.close()

    def test_close_idempotent(self, service):
        server = ServeServer(service, port=0).start()
        server.close()
        server.close()

    def test_close_closes_the_service(self, service, monkeypatch):
        closed = []
        monkeypatch.setattr(service, "close", lambda: closed.append(True))
        with ServeServer(service, port=0):
            assert closed == []
        assert closed == [True]
