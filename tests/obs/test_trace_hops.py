"""One trace context through every layer, one store record at the end.

The executor and the shard fan-out run on the caller's thread, so the
trace context is simply still active.  This file enters a query under
one trace context *with a collector* through each in turn and checks the same three things: exactly one trace
store record comes out, its span tree contains that hop's spans, and the
same trace id is served by both views, ``/traces.json`` and
``/flight.json``.  ``test_views_of_finished_work`` then pins both views
-- key order and every value that is not a time -- for each kind of
finished work: bare, failing, served, cached, shed and sharded queries.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.errors import QueryError
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


@pytest.mark.parametrize("hop", [
    _executor_hop,
    _shard_serial_hop,
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


# ----------------------------------------------------------------------
# the two views, pinned per kind of finished work
# ----------------------------------------------------------------------
ENTRY_KEYS = [
    "trace_id", "ts", "tenant", "outcome", "status", "duration_s",
    "keep_reason", "spans", "algorithm", "query",
]
RECORD_KEYS = [
    "trace_id", "ts", "algorithm", "variant", "query", "latency_s",
    "phase_times", "counters",
]


def _record_row(record: dict) -> tuple:
    """A record's key order and its values other than time."""
    return (
        list(record), record.get("algorithm"), record.get("variant"),
        record.get("tenant"), record.get("decision"),
        (record.get("error") or {}).get("type"), record.get("shard_id"),
    )


def _entry_row(entry: dict) -> tuple:
    return (
        list(entry),
        [entry.get(key) for key in (
            "tenant", "outcome", "status", "algorithm", "keep_reason",
        )],
        [_record_row(r) for r in entry.get("records", [])],
    )


def _bare_query(corpus):
    with tracing.trace_scope(TRACE_ID):
        QueryProcessor.build(*corpus).query(QUERY)


def _bare_failing_query(corpus):
    bad = PreferenceQuery(5, 0.06, 0.5, (0b1,))  # c=1 vs 2 trees
    with tracing.trace_scope(TRACE_ID), pytest.raises(QueryError):
        QueryProcessor.build(*corpus).query(bad)


def _served_ok(corpus):
    _serve(QueryProcessor.build(*corpus))


def _served_cached(corpus):
    with QueryExecutor(QueryProcessor.build(*corpus)) as executor:
        service = QueryService(executor)
        assert service.handle("acme", QUERY).outcome == "ok"
        hit = service.handle("acme", QUERY, trace_id=TRACE_ID)
    assert hit.outcome == "cached"


def _quota_429(corpus):
    with QueryExecutor(QueryProcessor.build(*corpus)) as executor:
        service = QueryService(
            executor, ServeConfig(default_quota=QuotaSpec(rate=1, burst=1))
        )
        assert service.handle("t", QUERY).status == 200
        assert service.handle("t", QUERY, trace_id=TRACE_ID).status == 429


def _sharded(corpus):
    with ShardedQueryProcessor.build(
        *corpus, shards=2, radius=0.1
    ) as sharded, tracing.trace_scope(TRACE_ID):
        sharded.query(QUERY)


STPS = ("stps", "range", None, None, None, None)
FANOUT = (RECORD_KEYS, "sharded/stps", "range", None, None, None, None)

#: case -> (driver, /traces.json rows or None when not pinned,
#: /flight.json rows).
VIEWS = {
    "bare_query": (
        _bare_query,
        [(ENTRY_KEYS + ["records"], ["", "ok", 0, "stps", "slow"],
          [(RECORD_KEYS, *STPS)])],
        [(RECORD_KEYS, *STPS)],
    ),
    "bare_failing_query": (
        _bare_failing_query,
        [(ENTRY_KEYS + ["records"], ["", "error", 0, "stps", "error"],
          [(RECORD_KEYS + ["error"], "stps", "range", None, None,
            "QueryError", None)])],
        [(RECORD_KEYS + ["error"], "stps", "range", None, None,
          "QueryError", None)],
    ),
    "served_ok": (
        _served_ok,
        [(ENTRY_KEYS + ["records"], ["acme", "ok", 200, "stps", "slow"],
          [(RECORD_KEYS, *STPS)])],
        [(RECORD_KEYS, *STPS)],
    ),
    "served_cached": (
        _served_cached,
        [(ENTRY_KEYS, ["acme", "cached", 200, "stps", "slow"], [])],
        [],
    ),
    "quota_429": (
        _quota_429,
        [(ENTRY_KEYS + ["reason", "records"],
          ["t", "quota", 429, "stps", "shed"],
          [(RECORD_KEYS + ["tenant", "decision"], "serve/stps", "range",
            "t", "quota", None, None)])],
        [(RECORD_KEYS + ["tenant", "decision"], "serve/stps", "range",
          "t", "quota", None, None)],
    ),
    "sharded_serial": (
        _sharded,
        None,
        [(RECORD_KEYS, *STPS), (RECORD_KEYS, *STPS), FANOUT],
    ),
}


@pytest.mark.parametrize("case", list(VIEWS))
def test_views_of_finished_work(corpus, case):
    """``/traces.json`` and ``/flight.json`` show each kind of finished
    work with the same keys, in the same order, and the same values."""
    drive, want_traces, want_records = VIEWS[case]
    drive(corpus)
    traces, records = _views(TRACE_ID)
    if want_traces is not None:
        assert [_entry_row(t) for t in traces] == want_traces
    assert [_record_row(r) for r in records] == want_records


def test_one_bare_sharded_query_is_one_store_entry(corpus):
    """Per-shard records ride on the whole query's entry, so the keep
    verdict is taken once per query, over its whole latency."""
    with ShardedQueryProcessor.build(
        *corpus, shards=2, radius=0.1
    ) as sharded:
        for i in range(5):
            sharded.query(QUERY)
            assert requests.stats()["seen"] == i + 1
    entries = requests.entries()
    assert [e.algorithm for e in entries] == ["sharded/stps"] * 5
    assert all(len(e.records) == 2 for e in entries)
    assert tracing.events() == []
