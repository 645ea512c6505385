"""Tests for the flight view: one flat record per query stored in the
trace store (``requests.flight_records()``, ``/flight.json``,
``python -m repro.obs --flight-out``)."""

from __future__ import annotations

import json

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.errors import QueryError, ShardError
from repro.obs import requests, tracing


def _reset_store(uniform_every: int) -> None:
    requests.clear()
    requests.configure(
        enabled_=False,
        max_bytes=requests.DEFAULT_MAX_BYTES,
        slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S,
        uniform_every=uniform_every,
    )


@pytest.fixture(autouse=True)
def clean_store():
    """Store state is process-global: isolate every test.

    The uniform sample is off so "below the threshold" means dropped.
    """
    _reset_store(uniform_every=0)
    yield
    _reset_store(uniform_every=requests.DEFAULT_UNIFORM_EVERY)


def _query(k: int = 5) -> PreferenceQuery:
    return PreferenceQuery(k, 0.05, 0.5, (0b111, 0b1110))


def _write(
    trace_id: str, duration_s: float, algorithm: str = "stps", **fields
) -> bool:
    """Write one bare engine query, as the processor does."""
    return requests.record(
        trace_id, duration_s=duration_s, algorithm=algorithm,
        query=_query(), **fields,
    )


def _records() -> list[dict]:
    return requests.flight_records()


class TestRecorderBasics:
    def test_disabled_by_default(self):
        assert requests.enabled is False
        assert not _write("t1", 1.0)
        assert _records() == []

    def test_latency_threshold(self):
        requests.configure(enabled_=True, slow_threshold_s=0.1)
        assert not _write("t1", 0.05)
        assert _write("t2", 0.15)
        records = _records()
        assert len(records) == 1
        assert records[0]["trace_id"] == "t2"
        assert records[0]["latency_s"] == 0.15
        assert records[0]["query"]["k"] == 5

    def test_errors_bypass_threshold(self):
        requests.configure(enabled_=True, slow_threshold_s=10.0)
        assert _write("t3", 0.001, error=QueryError("bad query"))
        record = _records()[0]
        assert record["error"] == {
            "type": "QueryError", "message": "bad query",
        }
        assert "shard_id" not in record

    def test_shard_id_from_shard_error(self):
        requests.configure(enabled_=True)
        _write("t4", 0.001, error=ShardError(3, "shard blew up"))
        assert _records()[0]["shard_id"] == 3

    def test_records_are_a_view_over_the_store(self):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        for i in range(3):
            _write(f"t{i}", 0.01)
        assert [r["trace_id"] for r in _records()] == ["t0", "t1", "t2"]
        # One store entry per bare engine query, which is its record.
        entries = requests.entries()
        assert [e.trace_id for e in entries] == ["t0", "t1", "t2"]
        assert [e.queries() for e in entries] == [[e] for e in entries]
        assert [e.as_record() for e in entries] == _records()
        assert entries[0].outcome == "ok" and entries[0].tenant == ""
        assert entries[0].status == 0 and entries[0].records == []
        stats = requests.flight_payload()["stats"]
        assert stats["buffered"] == 3
        assert stats["latency_threshold_s"] == 0.0

    def test_record_inside_a_collected_request_joins_its_collector(self):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        collector = tracing.SpanCollector()
        with tracing.trace_scope("req1", collector):
            assert _write("req1", 0.01)
        # The request's owner decides: nothing stored until it does.
        assert _records() == []
        assert [r.trace_id for r in collector.records] == ["req1"]

    def test_dump_jsonl(self, tmp_path):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        _write("aa", 0.01)
        _write("bb", 0.02, algorithm="stds", error=ShardError(1, "x"))
        path = requests.dump_jsonl(
            tmp_path / "flight.jsonl", docs=_records()
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["trace_id"] == "aa"
        assert "error" not in lines[0]
        assert lines[1]["error"]["type"] == "ShardError"
        assert lines[1]["shard_id"] == 1

    def test_clearing_the_store_clears_the_view(self):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        _write("t", 0.01)
        assert requests.clear() == 1
        assert _records() == []
        assert requests.flight_payload()["stats"]["buffered"] == 0


@pytest.fixture(scope="module")
def processor():
    objects = synthetic_objects(300, seed=9)
    feature_sets = synthetic_feature_sets(2, 200, 32, seed=10)
    return QueryProcessor.build(objects, feature_sets)


class TestProcessorIntegration:
    def test_slow_query_recorded_with_trace_id(self, processor):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        result = processor.query(_query())
        records = _records()
        assert len(records) == 1
        record = records[0]
        assert record["trace_id"] == result.stats.trace_id
        assert record["algorithm"] == "stps"
        assert record["counters"]["objects_scored"] == (
            result.stats.objects_scored
        )

    def test_every_record_carries_the_plan_counts(self, processor):
        """One digest, with or without ``explain``: a plain query's
        record holds the counts an EXPLAIN of it would show."""
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        processor.query(_query())
        plan = processor.explain(_query()).plan
        plain, explained = _records()[-2:]
        assert plain["counters"] == explained["counters"]
        counters = plain["counters"]
        assert counters["objects_scored"] == plan.objects_scored
        assert counters["pull_rounds"] == plan.combinations.pull_rounds > 0
        assert counters["rejected_2r"] == plan.combinations.rejected_2r
        assert counters["objects_dropped"] == 0  # STPS drops nothing
        for diag in plan.feature_sets:
            assert counters[f"nodes_visited[{diag.set_id}]"] == (
                diag.nodes_visited
            )
            assert counters[f"nodes_pruned[{diag.set_id}]"] == (
                diag.nodes_pruned
            )
        assert counters["nodes_expanded"] == sum(
            d.nodes_visited for d in plan.feature_sets
        )
        assert "plan_summary" not in plain

    def test_failed_query_recorded(self, processor):
        requests.configure(enabled_=True, slow_threshold_s=10.0)
        bad = PreferenceQuery(5, 0.05, 0.5, (0b1,))  # c=1 vs 2 trees
        with pytest.raises(QueryError):
            processor.query(bad)
        records = _records()
        assert len(records) == 1  # threshold skipped for errors
        assert records[0]["error"]["type"] == "QueryError"
        assert records[0]["trace_id"]

    def test_disabled_records_nothing(self, processor):
        processor.query(_query())
        assert _records() == []


class TestShardedIntegration:
    def test_shard_failure_carries_shard_id(self):
        from repro.shard import ShardedQueryProcessor

        objects = synthetic_objects(200, seed=11)
        feature_sets = synthetic_feature_sets(2, 150, 32, seed=12)
        requests.configure(enabled_=True, slow_threshold_s=10.0)
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.08
        ) as sharded:
            # Sabotage every shard so whichever runs first raises a
            # wrapped ShardError (run order follows the root bounds).
            for shard in sharded.shards:
                shard.processor.execute = _boom
            with pytest.raises(ShardError):
                sharded.query(_query())
        records = _records()
        # The sharded fan-out records the wrapped ShardError with the
        # failing shard's id (the per-shard processor was bypassed, so
        # only the fan-out layer records).
        shard_errors = [r for r in records if "error" in r]
        assert shard_errors
        assert shard_errors[-1]["error"]["type"] == "ShardError"
        assert shard_errors[-1]["shard_id"] in (0, 1)
        assert shard_errors[-1]["algorithm"] == "sharded/stps"

    def test_slow_sharded_query_recorded(self):
        from repro.shard import ShardedQueryProcessor

        objects = synthetic_objects(200, seed=11)
        feature_sets = synthetic_feature_sets(2, 150, 32, seed=12)
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.08
        ) as sharded:
            result = sharded.query(_query())
        fanout = [
            r for r in _records() if r["algorithm"] == "sharded/stps"
        ]
        assert len(fanout) == 1
        assert fanout[0]["trace_id"] == result.stats.trace_id
        # The fan-out's digest is the merged one, verdicts included.
        verdicts = {
            key: n for key, n in fanout[0]["counters"].items()
            if key.startswith("shards[")
        }
        assert sum(verdicts.values()) == 2
        assert fanout[0]["counters"]["pull_rounds"] == (
            result.stats.pull_rounds
        )
        # Per-shard executions (inside the fan-out's trace scope) were
        # recorded too, under the same trace id, on the query's entry.
        (entry,) = requests.entries()
        per_shard = [
            r for r in _records() if r["algorithm"] == "stps"
        ]
        assert per_shard
        assert len(entry.records) == len(per_shard)
        assert all(
            r["trace_id"] == result.stats.trace_id for r in per_shard
        )


def _boom(*args, **kwargs):
    raise RuntimeError("injected shard failure")


class TestDumpRotation:
    def _fill(self, n: int) -> None:
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        for i in range(n):
            _write(f"t{i}", 0.5)

    def test_rotation(self, tmp_path):
        self._fill(4)
        path = tmp_path / "flight.jsonl"
        # First dump: no existing file, no rotation.
        requests.dump_jsonl(path, docs=_records(), max_bytes=1 << 16)
        assert not (tmp_path / "flight.jsonl.1").exists()
        first = path.read_text()
        # Second dump rotates the first one out instead of clobbering.
        requests.dump_jsonl(path, docs=_records(), max_bytes=1 << 16)
        assert (tmp_path / "flight.jsonl.1").read_text() == first
        # Third dump shifts .1 -> .2.
        requests.dump_jsonl(path, docs=_records(), max_bytes=1 << 16)
        assert (tmp_path / "flight.jsonl.2").read_text() == first

    def test_backups_bounded(self, tmp_path):
        self._fill(2)
        path = tmp_path / "flight.jsonl"
        for _ in range(6):
            requests.dump_jsonl(path, docs=_records(), max_bytes=1 << 16, backups=2)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["flight.jsonl", "flight.jsonl.1", "flight.jsonl.2"]

    def test_oversized_dump_keeps_newest_records(self, tmp_path):
        self._fill(50)
        path = tmp_path / "flight.jsonl"
        one_line = len(json.dumps(_records()[0])) + 1
        requests.dump_jsonl(path, docs=_records(), max_bytes=one_line * 3 + 10)
        lines = path.read_text().splitlines()
        assert 0 < len(lines) <= 4
        # Newest survive (eviction order matches the store's).
        assert json.loads(lines[-1])["trace_id"] == "t49"
        assert path.stat().st_size <= one_line * 3 + 10

    def test_append_mode_rotates_at_cap(self, tmp_path):
        self._fill(5)
        path = tmp_path / "flight.jsonl"
        one_dump = sum(len(json.dumps(r)) + 1 for r in _records())
        cap = int(one_dump * 2.5)
        requests.dump_jsonl(path, docs=_records(), append=True, max_bytes=cap)
        requests.dump_jsonl(path, docs=_records(), append=True, max_bytes=cap)
        assert path.stat().st_size <= cap
        # Third append would exceed the cap: current file rotates away
        # and the dump starts fresh.
        requests.dump_jsonl(path, docs=_records(), append=True, max_bytes=cap)
        assert (tmp_path / "flight.jsonl.1").exists()
        assert path.stat().st_size <= cap

    def test_unbounded_dump_unchanged(self, tmp_path):
        self._fill(3)
        path = tmp_path / "flight.jsonl"
        requests.dump_jsonl(path, docs=_records())
        requests.dump_jsonl(path, docs=_records())  # plain overwrite, no rotation
        assert not (tmp_path / "flight.jsonl.1").exists()
        assert len(path.read_text().splitlines()) == 3
