"""End-to-end exemplar walk: one trace id joins bucket, record and export.

A slow query's latency lands in a histogram bucket *with its trace id
attached* (exemplar); that same id resolves to a trace-store record
(what the query was) and shows up on the OpenMetrics bucket line.  This
test walks the whole chain through a real query.
"""

from __future__ import annotations

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.obs import metrics, requests
from repro.obs.export import render_openmetrics


@pytest.fixture()
def telemetry():
    """Exemplars + a keep-everything trace store, then reset."""
    metrics.set_exemplars(True)
    requests.clear()
    requests.configure(enabled_=True, slow_threshold_s=0.0)
    try:
        yield
    finally:
        requests.configure(
            enabled_=False,
            slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S,
        )
        requests.clear()
        metrics.set_exemplars(False)


@pytest.fixture(scope="module")
def processor() -> QueryProcessor:
    return QueryProcessor.build(
        synthetic_objects(400, seed=21),
        synthetic_feature_sets(2, 200, 32, seed=22),
    )


def _exemplar_for(trace_id: str):
    for _, child in metrics.registry().get("repro_query_seconds").series():
        for bucket_index, value, tid, ts in child.exemplars():
            if tid == trace_id:
                return bucket_index, value, child
    return None


class TestExemplarWalk:
    def test_trace_id_joins_bucket_and_flight(self, telemetry, processor):
        result = processor.query(
            PreferenceQuery(5, 0.06, 0.5, (0b111, 0b1011))
        )
        trace_id = result.stats.trace_id
        assert trace_id

        # 1. The latency histogram bucket carries the trace id.
        found = _exemplar_for(trace_id)
        assert found is not None, "no exemplar captured for the query"
        bucket_index, value, child = found
        bounds = list(child.buckets) + [float("inf")]
        low = child.buckets[bucket_index - 1] if bucket_index else 0.0
        assert low < value <= bounds[bucket_index]

        # 2. The same id resolves to a flight record.
        record = next(
            (r for r in requests.flight_records()
             if r["trace_id"] == trace_id), None
        )
        assert record is not None
        assert record["latency_s"] == pytest.approx(value, rel=0.5)

        # 3. The exemplar is externally visible in OpenMetrics form.
        assert f'trace_id="{trace_id}"' in render_openmetrics()

    def test_no_exemplars_when_disabled(self, processor):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        try:
            result = processor.query(
                PreferenceQuery(3, 0.05, 0.5, (0b11, 0b11))
            )
        finally:
            requests.configure(
                enabled_=False,
                slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S,
            )
            requests.clear()
        assert _exemplar_for(result.stats.trace_id) is None
