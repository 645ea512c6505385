"""Process-mode shard fan-out: correctness, lifecycle, observability.

The spawn/fork matrix is the load-bearing part: fork inherits the
parent's memory (so a worker accidentally using inherited state would go
unnoticed), while spawn starts from a clean interpreter and proves the
manifests alone are sufficient to rebuild per-shard processors over the
shared-memory segments.
"""

import gc
import os
import threading

import pytest

from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.errors import QueryError, ShardError
from repro.obs import requests
from repro.shard import ShardedQueryProcessor

START_METHODS = ["fork", "spawn"]


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture(scope="module")
def corpus():
    objects = synthetic_objects(300, seed=71)
    feature_sets = synthetic_feature_sets(2, 160, 32, seed=72)
    return objects, feature_sets


@pytest.fixture(scope="module")
def queries():
    return [
        PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101)),
        PreferenceQuery(3, 0.08, 0.3, (0b0110, 0b1001)),
        PreferenceQuery(8, 0.04, 0.8, (0b1111, 0b1111)),
    ]


@pytest.fixture(scope="module")
def thread_results(corpus, queries):
    objects, feature_sets = corpus
    with ShardedQueryProcessor.build(
        objects, feature_sets, shards=2, radius=0.1
    ) as sharded:
        return [sharded.query(q) for q in queries]


class TestStartMethods:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_results_identical_to_thread_mode(
        self, corpus, queries, thread_results, start_method
    ):
        objects, feature_sets = corpus
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.1,
            fanout="processes", start_method=start_method,
        ) as sharded:
            assert sharded.describe()["fanout"] == "processes"
            for query, expected in zip(queries, thread_results):
                got = sharded.query(query)
                assert [(i.oid, i.score) for i in got.items] == [
                    (i.oid, i.score) for i in expected.items
                ]

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_no_leaked_shm_segments(self, corpus, queries, start_method):
        objects, feature_sets = corpus
        before = _shm_entries()
        sharded = ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.1,
            fanout="processes", start_method=start_method,
        )
        assert _shm_entries() - before  # frozen segments exist while open
        sharded.query(queries[0])
        sharded.close()
        assert _shm_entries() == before


class TestProcessModeBehavior:
    @pytest.fixture(scope="class")
    def sharded(self, corpus):
        objects, feature_sets = corpus
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.1, fanout="processes"
        ) as proc:
            yield proc

    def test_repeat_queries_reuse_workers(self, sharded, queries):
        first = sharded.query(queries[0])
        second = sharded.query(queries[0])
        assert [(i.oid, i.score) for i in first.items] == [
            (i.oid, i.score) for i in second.items
        ]
        # The runner is created once and kept across queries.
        assert sharded._process_runner is not None
        runner = sharded._process_runner
        sharded.query(queries[1])
        assert sharded._process_runner is runner

    def test_clear_buffers_bumps_epoch(self, sharded, queries):
        epoch = sharded._epoch
        sharded.clear_buffers()
        assert sharded._epoch == epoch + 1
        # Queries still work (workers clear their caches and re-read).
        result = sharded.query(queries[0])
        assert result.items

    def test_merged_stats_cover_worker_io(self, sharded, queries):
        sharded.clear_buffers()
        result = sharded.query(queries[2])
        # Worker-side page reads travel back inside QueryResult.stats.
        assert result.stats.io_reads > 0
        assert result.stats.objects_scored > 0
        assert result.stats.trace_id

    def test_flight_records_forwarded_with_shard_id(self, sharded, queries):
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        requests.clear()
        try:
            result = sharded.query(queries[0])
            records = requests.flight_records()
            shard_records = [r for r in records if "shard_id" in r]
            assert shard_records, "worker records did not reach the parent"
            shard_ids = {s.spec.shard_id for s in sharded.shards}
            assert {r["shard_id"] for r in shard_records} <= shard_ids
            assert all(
                r["trace_id"] == result.stats.trace_id for r in records
            )
        finally:
            requests.configure(
                enabled_=False,
                slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S,
            )
            requests.clear()

    def test_oversized_radius_rejected_like_thread_mode(self, sharded):
        bad = PreferenceQuery(5, 0.5, 0.5, (0b1011, 0b1101))
        with pytest.raises(QueryError):
            sharded.query(bad)

    def test_worker_error_channel_rehydrates_exceptions(
        self, sharded, queries
    ):
        # Submit for a shard id no worker knows: the failure crosses the
        # process boundary as an error payload and rehydrates into the
        # original ReproError subclass.
        from repro.shard.process_runner import ObsContext, unpickle_error

        runner = sharded._ensure_process_runner()
        future = runner.submit(
            999, sharded._epoch, queries[0], "stps", float("-inf"),
            ObsContext.capture("trace-err-test"), False,
        )
        payload = future.result()
        assert payload["result"] is None
        assert payload["error"]["is_repro"]
        exc = unpickle_error(payload["error"], 999)
        assert isinstance(exc, ShardError)

    def test_closed_processor_rejects_queries(self, corpus, queries):
        objects, feature_sets = corpus
        sharded = ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.1, fanout="processes"
        )
        sharded.close()
        with pytest.raises(ShardError):
            sharded.query(queries[0])


class TestConstruction:
    def test_unknown_fanout_rejected(self, corpus):
        objects, feature_sets = corpus
        for mode in ("fibers", "threads"):  # "threads" was a mode once
            with pytest.raises(ShardError, match="fanout"):
                ShardedQueryProcessor.build(
                    objects, feature_sets, shards=2, radius=0.1,
                    fanout=mode,
                )

    def test_process_fanout_requires_manifests(self):
        with pytest.raises(ShardError, match="manifests"):
            ShardedQueryProcessor(
                [object()], radius=0.1, fanout="processes"
            )

    def test_bad_start_method_rejected(self, corpus):
        from repro.shard import ProcessShardRunner

        with pytest.raises(ShardError, match="start method"):
            ProcessShardRunner([], max_workers=1, start_method="teleport")


class TestThreadLifecycle:
    """Neither the executor nor a serial-mode fan-out starts a thread;
    the process pool is the one thing left to shut."""

    def test_executor_context_exit_leaves_no_threads(self, corpus, queries):
        objects, feature_sets = corpus
        built = QueryProcessor.build(objects, feature_sets)
        before = threading.active_count()
        with QueryExecutor(built, max_workers=3) as executor:
            executor.query_many(queries[:2])
            assert threading.active_count() == before
        assert threading.active_count() == before

    def test_sharded_context_exit_leaves_no_threads(self, corpus, queries):
        objects, feature_sets = corpus
        before = threading.active_count()
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.1
        ) as sharded:
            assert sharded.fanout == "serial"
            sharded.query(queries[0])
            assert threading.active_count() == before
        assert threading.active_count() == before

    def test_sharded_del_shuts_pool(self, corpus, queries):
        objects, feature_sets = corpus
        before = _shm_entries()
        sharded = ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.1, fanout="processes"
        )
        sharded.query(queries[0])
        runner = sharded._process_runner
        del sharded
        gc.collect()
        assert runner._closed
        assert _shm_entries() == before
