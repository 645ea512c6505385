"""Concurrency tests: scrape-under-load, store eviction, trace ids.

The observability layer is shared mutable state under the batch
executor's worker threads — these tests drive real concurrent query
traffic and assert the diagnostics stay coherent.
"""

from __future__ import annotations

import threading
import urllib.request

import pytest

from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.obs import requests
from repro.obs.export import MetricsServer
from repro.obs.metrics import MetricsRegistry


def _reset_store():
    requests.clear()
    requests.configure(
        enabled_=False,
        max_bytes=requests.DEFAULT_MAX_BYTES,
        slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S,
    )


@pytest.fixture(autouse=True)
def clean_store():
    _reset_store()
    yield
    _reset_store()


@pytest.fixture(scope="module")
def processor():
    objects = synthetic_objects(400, seed=21)
    feature_sets = synthetic_feature_sets(2, 250, 32, seed=22)
    return QueryProcessor.build(objects, feature_sets)


def _queries(n: int) -> list[PreferenceQuery]:
    masks = [(0b1 << (i % 5)) | 0b1 for i in range(n)]
    return [
        PreferenceQuery(3, 0.03 + 0.001 * (i % 7), 0.5, (m, m << 1))
        for i, m in enumerate(masks)
    ]


class TestScrapeUnderLoad:
    def test_concurrent_scrapes_stay_parseable(self, processor):
        """Scraping while the executor hammers the registry never sees a
        torn line or a 500."""
        from repro.obs import metrics as _metrics

        server = MetricsServer(_metrics.registry(), port=0).start()
        bodies: list[str] = []
        errors: list[Exception] = []
        stop = threading.Event()

        def scrape_loop():
            url = f"http://127.0.0.1:{server.port}/metrics"
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=5) as resp:
                        bodies.append(resp.read().decode())
                except Exception as exc:  # noqa: BLE001 — collected
                    errors.append(exc)

        scraper = threading.Thread(target=scrape_loop, daemon=True)
        scraper.start()
        try:
            with QueryExecutor(processor, max_workers=4) as executor:
                executor.query_many(_queries(40), dedup=False)
        finally:
            stop.set()
            scraper.join(timeout=10)
            server.close()
        assert not errors
        assert bodies
        for body in bodies:
            for line in body.strip().splitlines():
                if line.startswith("#"):
                    continue
                # name{labels} value — two fields after the label block.
                assert " " in line, line
                value = line.rsplit(" ", 1)[1]
                assert value in ("NaN", "+Inf", "-Inf") or float(
                    value
                ) is not None

    def test_registry_counts_survive_concurrency(self, processor):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "t", ("w",))

        def bump(wid: str):
            for _ in range(500):
                c.labels(w=wid).inc()

        threads = [
            threading.Thread(target=bump, args=(str(i % 3),))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(child.value for _, child in c.series())
        assert total == 3000.0


class TestFlightUnderLoad:
    def test_byte_bound_eviction_under_query_many(self, processor):
        # Room for ~8 of the ~630-byte entries: 30 concurrent
        # admissions must evict without losing count or order.
        requests.configure(
            enabled_=True, slow_threshold_s=0.0, max_bytes=5000
        )
        queries = _queries(30)
        with QueryExecutor(processor, max_workers=4) as executor:
            results = executor.query_many(queries, dedup=False)
        assert len(results) == 30
        flight = requests.flight_payload()
        stats, records = flight["stats"], flight["records"]
        assert stats["seen"] == stats["kept"] == 30
        assert stats["bytes"] <= stats["max_bytes"]
        assert 0 < len(records) < 30
        assert stats["buffered"] == len(records)
        assert len(records) + stats["evicted_interesting"] == 30
        # The store keeps the newest: timestamps are non-decreasing.
        ts = [r["ts"] for r in records]
        assert ts == sorted(ts)

    def test_trace_ids_unique_per_execution(self, processor):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        queries = _queries(12)
        with QueryExecutor(processor, max_workers=4) as executor:
            results = executor.query_many(queries, dedup=False)
        record_ids = [r["trace_id"] for r in requests.flight_records()]
        assert len(record_ids) == 12
        assert len(set(record_ids)) == 12
        # Every result's trace id has a matching flight record.
        assert {r.stats.trace_id for r in results} == set(record_ids)

    def test_dedup_executes_once_records_once(self, processor):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        query = _queries(1)[0]
        with QueryExecutor(processor, max_workers=4) as executor:
            results = executor.query_many([query] * 6, dedup=True)
        assert len(results) == 6
        # One execution, one record.
        assert len(requests.flight_records()) == 1
