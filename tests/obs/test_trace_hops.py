"""One trace context through every layer, one store record at the end.

The executor and the serial shard fan-out run on the caller's thread, so
the trace context is simply still active; the process fan-out is the one
hop left, carried by ``ObsContext`` and the result payload.  This file
enters a query under one trace context *with a collector* through each
in turn and checks the same three things: exactly one trace
store record comes out, its span tree contains that hop's spans, and the
same trace id is served by both views, ``/traces.json`` and
``/flight.json``.
"""

from __future__ import annotations

import json
import os
import urllib.request

import pytest

from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.obs import requests, tracing
from repro.obs.export import MetricsServer
from repro.serve import QueryService, QuotaSpec, ServeConfig
from repro.shard import ShardedQueryProcessor

TRACE_ID = "feedfacefeedface"
QUERY = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))


@pytest.fixture(scope="module")
def corpus():
    return (
        synthetic_objects(300, seed=81),
        synthetic_feature_sets(2, 160, 32, seed=82),
    )


@pytest.fixture(autouse=True)
def keep_everything():
    """Store on, every request "slow", global tracing off throughout."""
    tracing.set_enabled(False)
    tracing.clear()
    requests.clear()
    requests.configure(enabled_=True, slow_threshold_s=0.0)
    yield
    requests.configure(
        enabled_=False, slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S
    )
    requests.clear()


def _views(trace_id: str) -> tuple[list[dict], list[dict]]:
    """What ``/traces.json`` and ``/flight.json`` hold for one id."""
    with MetricsServer(port=0) as server:
        base = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(
            f"{base}/traces.json?trace_id={trace_id}", timeout=5
        ) as resp:
            traces = json.load(resp)["traces"]
        with urllib.request.urlopen(f"{base}/flight.json", timeout=5) as resp:
            records = [
                r for r in json.load(resp)["records"]
                if r["trace_id"] == trace_id
            ]
    return traces, records


def _serve(processor) -> None:
    with QueryExecutor(processor, max_workers=2) as executor:
        decision = QueryService(executor).handle(
            "acme", QUERY, trace_id=TRACE_ID
        )
    assert decision.status == 200 and decision.trace_id == TRACE_ID


def _executor_hop(corpus):
    _serve(QueryProcessor.build(*corpus))
    return lambda span: span["name"] == "executor.query"


def _shard_serial_hop(corpus):
    with ShardedQueryProcessor.build(
        *corpus, shards=2, radius=0.1
    ) as sharded:
        _serve(sharded)
    return lambda span: span["name"] == "shard.query"


def _shard_processes_hop(corpus):
    with ShardedQueryProcessor.build(
        *corpus, shards=2, radius=0.1, fanout="processes",
        start_method="spawn",
    ) as sharded:
        _serve(sharded)
    # A query span recorded in another interpreter: under spawn it can
    # only have travelled through the result payload.
    return lambda span: (
        span["name"] == "query.stps" and span["pid"] != os.getpid()
    )


@pytest.mark.parametrize("hop", [
    _executor_hop,
    _shard_serial_hop,
    _shard_processes_hop,
])
def test_hop_keeps_one_trace_one_record(corpus, hop):
    is_hop_span = hop(corpus)

    (trace,) = requests.entries()  # exactly one store record
    assert trace.trace_id == TRACE_ID
    assert any(is_hop_span(span) for span in trace.spans), sorted(
        {span["name"] for span in trace.spans}
    )
    # The engine-level record(s) of the query sit in the same entry.
    assert trace.records
    assert {r.trace_id for r in trace.records} == {TRACE_ID}
    assert tracing.events() == []  # the global buffer was never armed

    traces, records = _views(TRACE_ID)
    assert [t["trace_id"] for t in traces] == [TRACE_ID]
    assert len(records) == len(trace.records)


def test_quota_429_is_stored_once_and_seen_through_both_views(corpus):
    with QueryExecutor(QueryProcessor.build(*corpus)) as executor:
        service = QueryService(
            executor, ServeConfig(default_quota=QuotaSpec(rate=1, burst=1))
        )
        assert service.handle("t", QUERY).status == 200
        shed = service.handle("t", QUERY, trace_id=TRACE_ID)
    assert shed.status == 429 and shed.outcome == "quota"

    stored = [t for t in requests.entries() if t.trace_id == TRACE_ID]
    assert len(stored) == 1
    assert stored[0].keep_reason == "shed"
    traces, records = _views(TRACE_ID)
    assert [t["outcome"] for t in traces] == ["quota"]
    assert [(r["tenant"], r["decision"]) for r in records] == [
        ("t", "quota")
    ]
