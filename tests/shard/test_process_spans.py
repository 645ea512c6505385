"""Worker-side tracer spans crossing the process result channel.

With ``fanout="processes"`` the shard work happens in other
interpreters, which used to leave blank worker tracks in the Chrome
trace.  Workers record their own spans and ship them back in the
result payload as raw tuples; their monotonic-clock stamps land on the
parent's timeline as they are.
Spawn mode is the proving ground: a fresh interpreter can't inherit the
parent's tracer state, so any event that shows up really did travel
through the payload.
"""

from __future__ import annotations

import os

import pytest

from repro.core.query import PreferenceQuery
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.obs import tracing
from repro.shard import ShardedQueryProcessor


@pytest.fixture(scope="module")
def corpus():
    objects = synthetic_objects(300, seed=81)
    feature_sets = synthetic_feature_sets(2, 160, 32, seed=82)
    return objects, feature_sets


@pytest.fixture(autouse=True)
def clean_tracing():
    tracing.set_enabled(False)
    tracing.clear()
    yield
    tracing.set_enabled(False)
    tracing.clear()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_spans_reach_parent_trace(corpus, start_method):
    objects, feature_sets = corpus
    with ShardedQueryProcessor.build(
        objects, feature_sets, shards=2, radius=0.1,
        fanout="processes", start_method=start_method,
    ) as sharded:
        tracing.set_enabled(True)
        tracing.clear()
        result = sharded.query(
            PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
        )
        tracing.set_enabled(False)

    parent_pid = os.getpid()
    events = tracing.events()
    foreign = [e for e in events if e.get("pid") != parent_pid]
    assert foreign, "no worker-process events crossed the channel"

    # Worker spans carry the parent's trace id (the join key).
    trace_id = result.stats.trace_id
    tagged = [
        e for e in foreign
        if (e.get("args") or {}).get("trace_id") == trace_id
    ]
    assert tagged, "worker spans lost the parent trace id"
    names = {e["name"] for e in tagged}
    assert any(n.startswith("query.") for n in names), names

    # Worker timestamps interleave with the parent's own fan-out span
    # window (same monotonic clock in both processes).
    parent_query = [
        e for e in events
        if e.get("pid") == parent_pid and e["name"] == "shard.fanout"
        and (e.get("args") or {}).get("trace_id") == trace_id
    ]
    assert parent_query
    lo = min(e["ts"] for e in parent_query)
    hi = max(e["ts"] + e.get("dur", 0) for e in parent_query)
    for event in tagged:
        assert lo <= event["ts"] <= hi, (
            f"worker event at {event['ts']} outside parent window "
            f"[{lo}, {hi}]"
        )


def test_worker_thread_names_in_chrome_trace(corpus):
    objects, feature_sets = corpus
    with ShardedQueryProcessor.build(
        objects, feature_sets, shards=2, radius=0.1, fanout="processes",
    ) as sharded:
        tracing.set_enabled(True)
        tracing.clear()
        sharded.query(PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101)))
        tracing.set_enabled(False)

    doc = tracing.chrome_trace()
    parent_pid = os.getpid()
    metadata = [
        e for e in doc["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "thread_name"
        and e.get("pid") != parent_pid
    ]
    assert metadata, "no worker thread_name metadata emitted"


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_collector_gets_worker_spans_with_tracing_off(corpus, start_method):
    """A served request's collector sees worker spans under one trace id.

    Global tracing stays OFF the whole time: the per-request collector
    alone must arm span recording across the process boundary, and the
    spans that come back must carry the caller's trace id — under spawn,
    where nothing is inherited, that identity can only have travelled
    through the dispatch payload.
    """
    objects, feature_sets = corpus
    trace_id = "feedfacefeedface"
    collector = tracing.SpanCollector()
    with ShardedQueryProcessor.build(
        objects, feature_sets, shards=2, radius=0.1,
        fanout="processes", start_method=start_method,
    ) as sharded:
        with tracing.trace_scope(trace_id, collector):
            result = sharded.query(
                PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
            )

    assert result.stats.trace_id == trace_id
    assert tracing.events() == []  # global buffer untouched
    spans = collector.snapshot()
    foreign = [e for e in spans if e.get("pid") != os.getpid()]
    assert foreign, "no worker-process spans reached the collector"
    assert all(
        (e.get("args") or {}).get("trace_id") == trace_id for e in foreign
    ), "worker spans lost the request trace id"
    local = [e for e in spans if e.get("pid") == os.getpid()]
    assert local, "no parent-side spans in the collector"


def test_disabled_tracing_ships_no_spans(corpus):
    objects, feature_sets = corpus
    with ShardedQueryProcessor.build(
        objects, feature_sets, shards=2, radius=0.1, fanout="processes",
    ) as sharded:
        tracing.clear()
        sharded.query(PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101)))
    assert tracing.events() == []
