"""End-to-end tests of the HTTP front end (:mod:`repro.serve.http`).

Real sockets against an ephemeral-port :class:`ServeServer`; the
observability routes inherited from the metrics handler are exercised on
the same listener, as deployed.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core.executor import QueryExecutor
from repro.core.query import PreferenceQuery
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
        "field", [{"radius": "nan"}, {"radius": "inf"}, {"k": 2.7}],
        ids=["radius=nan", "radius=inf", "k=2.7"],
    )
    def test_unanswerable_numbers_are_400_for_every_engine(
        self, served, algorithm, field
    ):
        """These used to depend on the engine: ``radius=nan`` was a 500
        through STPS, ``radius=inf`` a 500 through STDS and a 200 through
        STPS; a JSON ``k`` of 2.7 was served as ``k=2``."""
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


class TestLifecycle:
    def test_close_is_prompt_despite_half_open_client(self, srt_processor):
        with QueryExecutor(srt_processor, max_workers=1) as executor:
            service = QueryService(executor, ServeConfig())
            server = ServeServer(service, port=0).start()
            # Half-open client: connects, never sends a request line.
            stuck = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            )
            try:
                time.sleep(0.05)  # let the server accept it
                t0 = time.perf_counter()
                server.close()
                assert time.perf_counter() - t0 < 2.0
            finally:
                stuck.close()

    def test_close_idempotent(self, srt_processor):
        with QueryExecutor(srt_processor, max_workers=1) as executor:
            server = ServeServer(
                QueryService(executor, ServeConfig()), port=0
            ).start()
            server.close()
            server.close()
