"""Tests for repro.obs.export: Prometheus text, JSON, scrape endpoint."""

from __future__ import annotations

import json
import math
import re
import urllib.error
import urllib.request

import pytest

from repro.obs.export import (
    CONTENT_TYPE_PROMETHEUS,
    MetricsServer,
    render_prometheus,
    snapshot,
    write_json,
)
from repro.obs.metrics import MetricsRegistry

#: One sample line: name{labels} value — the grammar Prometheus scrapes.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (NaN|[+-]Inf|[0-9.e+-]+)$"
)


@pytest.fixture()
def reg() -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("repro_queries_total", "Queries executed.", ("algorithm",))
    c.labels(algorithm="stps").inc(3)
    c.labels(algorithm="stds").inc(1)
    g = reg.gauge("repro_cache_pages", "Buffered pages.")
    g.set(42)
    h = reg.histogram(
        "repro_query_seconds", "Latency.", ("algorithm",), buckets=[0.01, 0.1, 1.0]
    )
    for v in (0.005, 0.05, 0.5, 5.0):
        h.labels(algorithm="stps").observe(v)
    return reg


class TestPrometheusText:
    def test_every_line_parses(self, reg):
        text = render_prometheus(reg)
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ", line)
            else:
                assert SAMPLE_RE.match(line), line

    def test_headers_and_samples(self, reg):
        text = render_prometheus(reg)
        assert "# TYPE repro_queries_total counter" in text
        assert "# HELP repro_queries_total Queries executed." in text
        assert 'repro_queries_total{algorithm="stps"} 3.0' in text
        assert "# TYPE repro_cache_pages gauge" in text
        assert "repro_cache_pages 42.0" in text
        assert "# TYPE repro_query_seconds histogram" in text

    def test_histogram_buckets_cumulative_and_inf(self, reg):
        text = render_prometheus(reg)
        counts = [
            int(m.group(1))
            for m in re.finditer(
                r'repro_query_seconds_bucket\{algorithm="stps",le="[^"]+"\} (\d+)',
                text,
            )
        ]
        assert counts == sorted(counts)  # cumulative => monotone
        assert len(counts) == 4  # 3 finite bounds + +Inf
        assert 'le="+Inf"} 4' in text
        assert 'repro_query_seconds_count{algorithm="stps"} 4' in text
        assert re.search(
            r'repro_query_seconds_sum\{algorithm="stps"\} 5\.55', text
        )

    def test_label_escaping(self):
        reg = MetricsRegistry()
        c = reg.counter("c", labelnames=("q",))
        c.labels(q='say "hi"\nback\\slash').inc()
        text = render_prometheus(reg)
        assert r'q="say \"hi\"\nback\\slash"' in text

    def test_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_special_float_values(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.inf)
        assert "g +Inf" in render_prometheus(reg)


def _unescape_label_value(value: str) -> str:
    """Invert Prometheus label escaping (the scraper's view)."""
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, ch + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class TestLabelEscapingRoundTrip:
    """Escaping must be invertible: escape → parse → unescape → original.

    Guards against the classic ordering bug (escaping quotes before
    backslashes double-escapes) and against newlines breaking the
    line-oriented exposition format.
    """

    @pytest.mark.parametrize(
        "raw",
        [
            "plain",
            'say "hi"',
            "back\\slash",
            "line\nbreak",
            '\\"',  # backslash then quote: order-sensitive
            "\\n",  # literal backslash-n, not a newline
            'mix\\of "all"\nthree\\',
            "",
        ],
    )
    def test_round_trip(self, raw):
        reg = MetricsRegistry()
        reg.counter("c", labelnames=("q",)).labels(q=raw).inc()
        text = render_prometheus(reg)
        lines = [
            l for l in text.strip().splitlines() if not l.startswith("#")
        ]
        assert len(lines) == 1  # newlines in values never split a sample
        m = re.match(r'^c\{q="((?:\\.|[^"\\])*)"\} 1\.0$', lines[0])
        assert m, lines[0]
        assert _unescape_label_value(m.group(1)) == raw

    def test_distinct_values_stay_distinct(self):
        # '\\n' (two chars) and '\n' (newline) must not collide after
        # escaping: backslash is escaped first.
        reg = MetricsRegistry()
        c = reg.counter("c", labelnames=("q",))
        c.labels(q="\\n").inc()
        c.labels(q="\n").inc()
        text = render_prometheus(reg)
        assert r'q="\\n"' in text
        assert r'q="\n"' in text


class TestQuantileInfClipping:
    """quantile() at the +Inf bucket clips to the top finite bound."""

    def test_clips_to_top_finite_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[1.0, 2.0])
        h.observe(5.0)  # lands in the implicit +Inf bucket
        assert h.quantile(0.99) == 2.0
        # count/sum still see the real observation.
        ((_, child),) = h.series()
        assert child.count == 1
        assert child.sum == 5.0

    def test_no_finite_buckets_returns_inf(self):
        import threading

        from repro.obs.metrics import Histogram

        h = Histogram(threading.Lock(), ())
        h.observe(3.0)
        assert h.quantile(0.5) == math.inf

    def test_no_observations_returns_zero(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[1.0, 2.0])
        assert h.quantile(0.5) == 0.0

    def test_mixed_observations_interpolate_below_clip(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[1.0, 2.0])
        for v in (0.5, 0.5, 0.5, 5.0):
            h.observe(v)
        # p50 sits inside the first finite bucket; p99 is clipped.
        assert h.quantile(0.5) <= 1.0
        assert h.quantile(0.99) == 2.0


class TestJsonSnapshot:
    def test_snapshot_shape(self, reg):
        snap = snapshot(reg)
        assert snap["repro_queries_total"]["type"] == "counter"
        series = {
            s["labels"]["algorithm"]: s["value"]
            for s in snap["repro_queries_total"]["series"]
        }
        assert series == {"stps": 3.0, "stds": 1.0}
        hist = snap["repro_query_seconds"]["series"][0]
        assert hist["count"] == 4
        assert hist["buckets"] == [0.01, 0.1, 1.0]
        assert sum(hist["bucket_counts"]) == 4
        assert hist["p50"] <= hist["p95"] <= hist["p99"]

    def test_write_json(self, reg, tmp_path):
        path = write_json(tmp_path / "snap.json", reg)
        doc = json.loads(path.read_text())
        assert doc["repro_cache_pages"]["series"][0]["value"] == 42.0


class TestMetricsServer:
    def test_scrape_endpoint(self, reg):
        with MetricsServer(reg, port=0) as server:
            assert server.port != 0
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE_PROMETHEUS
                body = resp.read().decode()
            assert 'repro_queries_total{algorithm="stps"} 3.0' in body
            with urllib.request.urlopen(
                f"{base}/metrics.json", timeout=5
            ) as resp:
                doc = json.load(resp)
            assert doc["repro_cache_pages"]["series"][0]["value"] == 42.0
            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as resp:
                assert resp.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope", timeout=5)

    def test_scrape_reflects_live_updates(self, reg):
        with MetricsServer(reg, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            reg.counter("repro_queries_total", labelnames=("algorithm",)).labels(
                algorithm="stps"
            ).inc(7)
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
                body = resp.read().decode()
            assert 'repro_queries_total{algorithm="stps"} 10.0' in body

    def test_close_idempotent(self, reg):
        server = MetricsServer(reg, port=0).start()
        server.close()
        server.close()

    def test_half_open_connection_times_out_server_side(self, reg):
        """The handler socket timeout drains the stalled thread: after
        ``timeout`` seconds the server closes the connection on its own
        (the client sees EOF) even while the server keeps running."""
        from repro.obs import export as export_mod

        import socket
        import time

        original = export_mod._Handler.timeout
        export_mod._Handler.timeout = 0.2
        try:
            with MetricsServer(reg, port=0) as server:
                stuck = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5
                )
                try:
                    stuck.settimeout(5)
                    t0 = time.perf_counter()
                    assert stuck.recv(1) == b""  # server-side close
                    assert time.perf_counter() - t0 < 3.0
                finally:
                    stuck.close()
        finally:
            export_mod._Handler.timeout = original


class TestOpenMetrics:
    @pytest.fixture()
    def reg_with_exemplars(self) -> MetricsRegistry:
        from repro.obs import tracing
        from repro.obs.metrics import enabled_exemplars

        reg = MetricsRegistry()
        h = reg.histogram(
            "repro_query_seconds", "Latency.", buckets=[0.01, 0.1, 1.0]
        )
        with enabled_exemplars():
            with tracing.trace_scope("tr-om-1"):
                h.observe(0.05)
        h.observe(0.5)  # outside any trace scope: no exemplar
        return reg

    def test_bucket_lines_carry_exemplars(self, reg_with_exemplars):
        from repro.obs.export import render_openmetrics

        text = render_openmetrics(reg_with_exemplars)
        assert text.endswith("# EOF\n")
        exemplar_lines = [
            line for line in text.splitlines() if "# {" in line
        ]
        assert len(exemplar_lines) == 1
        line = exemplar_lines[0]
        assert 'le="0.1"' in line
        assert 'trace_id="tr-om-1"' in line
        assert " 0.05 " in line

    def test_prometheus_text_stays_exemplar_free(self, reg_with_exemplars):
        # CI regex-validates every line of obs_metrics.prom; exemplars
        # are OpenMetrics-only syntax and must never leak there.
        text = render_prometheus(reg_with_exemplars)
        assert "# {" not in text
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert SAMPLE_RE.match(line), line

    def test_snapshot_includes_exemplars(self, reg_with_exemplars):
        doc = snapshot(reg_with_exemplars)
        series = doc["repro_query_seconds"]["series"][0]
        assert len(series["exemplars"]) == 1
        ex = series["exemplars"][0]
        assert ex["trace_id"] == "tr-om-1"
        assert ex["value"] == 0.05


class TestTimeseriesEndpoints:
    @pytest.fixture()
    def served(self, reg):
        from repro.obs.slo import default_slos
        from repro.obs.timeseries import TimeSeriesRing

        ring = TimeSeriesRing(registry=reg, capacity=32)
        ring.sample()
        reg.counter(
            "repro_queries_total", labelnames=("algorithm",)
        ).labels(algorithm="stps").inc(5)
        ring.sample()
        with MetricsServer(
            reg, port=0, ring=ring, slos=default_slos()
        ) as server:
            yield f"http://127.0.0.1:{server.port}"

    def test_timeseries_json(self, served):
        with urllib.request.urlopen(
            f"{served}/timeseries.json", timeout=5
        ) as resp:
            doc = json.load(resp)
        assert doc["slots"] == 2
        assert doc["timeline"]
        assert set(doc["windows"]) == {"10", "60", "300"}
        assert doc["windows"]["60"]["rates"]["repro_queries_total"] >= 0
        from repro.obs.slo import default_slos

        assert {v["slo"] for v in doc["slo"]["slos"]} == {
            s.name for s in default_slos()
        }

    def test_dashboard_serves_html(self, served):
        with urllib.request.urlopen(f"{served}/dashboard", timeout=5) as resp:
            assert resp.headers["Content-Type"].startswith("text/html")
            body = resp.read().decode()
        assert "timeseries.json" in body  # polls its sibling endpoint
        assert "<canvas" in body

    def test_openmetrics_endpoint(self, served):
        from repro.obs.export import CONTENT_TYPE_OPENMETRICS

        with urllib.request.urlopen(
            f"{served}/openmetrics", timeout=5
        ) as resp:
            assert resp.headers["Content-Type"] == CONTENT_TYPE_OPENMETRICS
            assert resp.read().decode().endswith("# EOF\n")

    def test_flight_json(self, served):
        with urllib.request.urlopen(f"{served}/flight.json", timeout=5) as resp:
            doc = json.load(resp)
        assert "stats" in doc and "records" in doc

    def test_flamegraph_404_when_not_installed(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{served}/flamegraph.txt", timeout=5)
        assert excinfo.value.code == 404

    def test_timeseries_404_without_ring(self, reg):
        with MetricsServer(reg, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/timeseries.json",
                    timeout=5,
                )
            assert excinfo.value.code == 404


class TestTimeseriesPayload:
    def test_payload_shape_without_slos(self, reg):
        from repro.obs.export import timeseries_payload
        from repro.obs.timeseries import TimeSeriesRing

        ring = TimeSeriesRing(registry=reg, capacity=8)
        ring.sample()
        payload = timeseries_payload(ring)
        assert payload["capacity"] == 8
        assert "slo" not in payload
        assert json.dumps(payload)  # must stay JSON-serializable
