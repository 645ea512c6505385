"""Tests for the batch-query executor (repro.core.executor)."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.core.executor import BatchReport, QueryExecutor
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.core.stds import stds
from repro.errors import QueryError
from tests.conftest import random_mask


def make_queries(n: int, seed: int, variant: Variant = Variant.RANGE):
    rng = random.Random(seed)
    return [
        PreferenceQuery(
            k=rng.randint(2, 6),
            radius=rng.uniform(0.05, 0.15),
            lam=rng.choice([0.0, 0.5, 1.0]),
            keyword_masks=(random_mask(rng), random_mask(rng)),
            variant=variant,
        )
        for _ in range(n)
    ]


def assert_same_result(a, b):
    assert a.oids == b.oids
    assert a.scores == b.scores


class TestQueryManyParity:
    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    def test_matches_serial_run(self, srt_processor, algorithm):
        queries = make_queries(6, seed=81)
        serial = [srt_processor.query(q, algorithm=algorithm) for q in queries]
        with QueryExecutor(srt_processor, max_workers=4) as executor:
            concurrent = executor.query_many(queries, algorithm=algorithm)
        assert len(concurrent) == len(serial)
        for a, b in zip(serial, concurrent):
            assert_same_result(a, b)

    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    def test_items_equal_the_bare_loop(self, srt_processor, algorithm, dedup):
        queries = make_queries(4, seed=87)
        queries += queries[:2]  # duplicates, so dedup has work to do
        loop = [srt_processor.query(q, algorithm=algorithm) for q in queries]
        with QueryExecutor(srt_processor) as executor:
            batch = executor.query_many(
                queries, algorithm=algorithm, dedup=dedup
            )
        assert [r.items for r in batch] == [r.items for r in loop]

    def test_results_in_input_order(self, srt_processor):
        queries = make_queries(8, seed=82)
        with QueryExecutor(srt_processor, max_workers=3) as executor:
            results = executor.query_many(queries)
        for query, result in zip(queries, results):
            assert_same_result(result, srt_processor.query(query))

    @pytest.mark.parametrize(
        "variant", [Variant.INFLUENCE, Variant.NEAREST]
    )
    def test_score_variants_supported(self, srt_processor, variant):
        queries = make_queries(3, seed=83, variant=variant)
        serial = [srt_processor.query(q) for q in queries]
        with QueryExecutor(srt_processor, max_workers=2) as executor:
            concurrent = executor.query_many(queries)
        for a, b in zip(serial, concurrent):
            assert_same_result(a, b)

    def test_repeated_query_identical(self, srt_processor):
        query = make_queries(1, seed=84)[0]
        expected = srt_processor.query(query)
        with QueryExecutor(srt_processor, max_workers=4) as executor:
            results = executor.query_many([query] * 8)
        for result in results:
            assert_same_result(result, expected)


class TestBatchDedup:
    def test_duplicates_share_one_execution(self, srt_processor):
        queries = make_queries(3, seed=95)
        workload = queries * 4  # every query duplicated 4x
        with QueryExecutor(srt_processor, max_workers=2) as executor:
            results = executor.query_many(workload)
        assert len(results) == len(workload)
        # Duplicates share the very same result object...
        for i, query in enumerate(workload):
            first = workload.index(query)
            assert results[i] is results[first]
        # ...and every position matches its serial answer.
        for query, result in zip(workload, results):
            assert_same_result(result, srt_processor.query(query))

    def test_dedup_off_executes_each_entry(self, srt_processor):
        query = make_queries(1, seed=96)[0]
        with QueryExecutor(srt_processor, max_workers=2) as executor:
            shared = executor.query_many([query] * 3)
            separate = executor.query_many([query] * 3, dedup=False)
        assert shared[0] is shared[1] is shared[2]
        assert separate[0] is not separate[1]
        for a, b in zip(shared, separate):
            assert_same_result(a, b)

    def test_dedup_reduces_measured_work(self, srt_processor):
        queries = make_queries(2, seed=97)
        workload = queries * 10
        with QueryExecutor(srt_processor, max_workers=1) as executor:
            executor.query_many(queries)  # warm caches identically
            deduped = executor.run(workload, algorithm="stds")
            full = executor.run(workload, algorithm="stds", dedup=False)
        lookups_deduped = deduped.node_cache_hits + deduped.node_cache_misses
        lookups_full = full.node_cache_hits + full.node_cache_misses
        assert lookups_deduped < lookups_full
        assert deduped.queries == full.queries == len(workload)


class TestSharedLeafRuns:
    """Concurrent queries read and fill the same per-leaf run memo."""

    def test_two_threads_share_runs_and_match_serial(self, objects, feature_sets):
        # Two keyword-mask pairs under many (k, radius): distinct queries
        # (no dedup) that score every leaf under one of two memo keys.
        pairs = [(0b1011 << 3, 0b1101 << 9), (0b111 << 12, 0b1011 << 3)]
        queries = [
            PreferenceQuery(k=k, radius=radius, lam=0.5, keyword_masks=masks)
            for k in (1, 3, 6)
            for radius in (0.05, 0.09, 0.14)
            for masks in pairs
        ]
        # The serial answers come from separately built (cold-memo) indexes.
        reference = QueryProcessor.build(objects, feature_sets, page_size=512)
        shared = QueryProcessor.build(objects, feature_sets, page_size=512)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over inside leaf_run
        try:
            with QueryExecutor(shared, max_workers=2) as executor:
                for algorithm in ("stps", "stds"):
                    serial = [
                        reference.query(q, algorithm=algorithm) for q in queries
                    ]
                    # The executor owns no threads: two callers each
                    # run the whole batch, side by side.
                    batches: list = [None, None]

                    def work(slot):
                        batches[slot] = executor.query_many(
                            queries, algorithm=algorithm, dedup=False
                        )

                    threads = [
                        threading.Thread(target=work, args=(slot,))
                        for slot in range(2)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    for concurrent in batches:
                        for a, b in zip(serial, concurrent):
                            assert_same_result(a, b)
        finally:
            sys.setswitchinterval(interval)
        # One memoised run per leaf and (mask, λ): the 2 x 18 queries per
        # algorithm shared them rather than keeping a run each.
        for tree, masks in zip(shared.feature_trees, zip(*pairs)):
            keys = {(mask, 0.5) for mask in masks}
            memos = [
                tree.leaf_arrays(leaf).memo for leaf in tree.iter_leaves()
            ]
            assert all(set(memo) <= keys for memo in memos)
            assert any(memo for memo in memos) or not memos


class TestProcessorConvenience:
    def test_query_many_wrapper(self, srt_processor):
        queries = make_queries(4, seed=85)
        serial = [srt_processor.query(q) for q in queries]
        concurrent = srt_processor.query_many(queries)
        for a, b in zip(serial, concurrent):
            assert_same_result(a, b)

    def test_batch_size_does_not_change_results(self, srt_processor):
        query = make_queries(1, seed=86)[0]
        base = srt_processor.query(query, algorithm="stds")
        for batch_size in (1, 3, 1000):
            got = stds(
                srt_processor.object_tree, srt_processor.feature_trees,
                query, batch_size=batch_size,
            )
            assert_same_result(got, base)

    def test_invalid_knobs_rejected(self, srt_processor):
        query = make_queries(1, seed=88)[0]
        with pytest.raises(QueryError):
            stds(
                srt_processor.object_tree, srt_processor.feature_trees,
                query, batch_size=0,
            )


class TestLifecycle:
    def test_invalid_max_workers(self, srt_processor):
        with pytest.raises(QueryError):
            QueryExecutor(srt_processor, max_workers=0)

    def test_closed_executor_rejects_work(self, srt_processor):
        executor = QueryExecutor(srt_processor, max_workers=1)
        executor.close()
        with pytest.raises(QueryError):
            executor.query_many(make_queries(1, seed=89))

    def test_close_idempotent(self, srt_processor):
        executor = QueryExecutor(srt_processor, max_workers=1)
        executor.close()
        executor.close()  # must not raise


class _BlockingProcessor:
    """Processor double: a query holds its slot until handed a permit."""

    def __init__(self):
        self.permits = threading.Semaphore(0)
        self._lock = threading.Lock()
        self.inside = 0
        self.max_inside = 0

    def query(self, query, **kwargs):
        with self._lock:
            self.inside += 1
            self.max_inside = max(self.max_inside, self.inside)
        try:
            assert self.permits.acquire(timeout=10)
        finally:
            with self._lock:
                self.inside -= 1
        return query


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestSlotGate:
    """``max_workers`` bounds concurrent executions of calling threads."""

    @staticmethod
    def _four_callers(executor):
        samples: list[tuple[float, float]] = []

        def call():
            _, wait_s, latency_s = executor.execute_one(make_queries(1, 1)[0])
            samples.append((wait_s, latency_s))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        return threads, samples

    @pytest.mark.parametrize("slots", [1, 2])
    def test_gate_admits_max_workers_and_counts_the_rest(self, slots):
        processor = _BlockingProcessor()
        executor = QueryExecutor(processor, max_workers=slots)
        threads, samples = self._four_callers(executor)
        assert _wait_until(
            lambda: executor.running_count == slots
            and executor.queue_depth == 4 - slots
        )
        assert processor.inside == slots
        held_s = 0.05  # every waiter is known to be blocked this long
        time.sleep(held_s)
        for _ in threads:
            processor.permits.release()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert processor.max_inside == slots  # never overlapped past it
        assert executor.queue_depth == executor.running_count == 0
        waits = sorted(wait_s for wait_s, _ in samples)
        assert len(waits) == 4
        assert all(wait_s >= held_s for wait_s in waits[slots:])
        assert all(latency_s >= 0.0 for _, latency_s in samples)

    def test_failing_query_returns_its_counts(self):
        class Failing:
            def query(self, query, **kwargs):
                raise RuntimeError("boom")

        executor = QueryExecutor(Failing(), max_workers=1)
        with pytest.raises(RuntimeError):
            executor.execute_one(make_queries(1, 1)[0])
        assert executor.query_many(
            make_queries(2, 2), on_error="return"
        ) == [None, None]
        assert executor.queue_depth == executor.running_count == 0

    def test_close_racing_callers_leaves_no_depth(self, srt_processor):
        executor = QueryExecutor(srt_processor, max_workers=2)
        query = make_queries(1, seed=99)[0]
        refused = []

        def hammer():
            try:
                while True:
                    executor.execute_one(query)
            except QueryError:
                refused.append(True)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        executor.close()
        for thread in threads:
            thread.join(timeout=10)
        assert len(refused) == 4
        assert executor.queue_depth == executor.running_count == 0


class TestBatchReport:
    def test_run_accounting(self, srt_processor):
        queries = make_queries(5, seed=90)
        with QueryExecutor(srt_processor, max_workers=4) as executor:
            report = executor.run(queries)
        assert isinstance(report, BatchReport)
        assert report.queries == 5
        assert len(report.results) == 5
        assert report.wall_s > 0
        assert report.throughput_qps > 0
        total = report.node_cache_hits + report.node_cache_misses
        assert total > 0
        assert 0.0 <= report.node_cache_hit_rate <= 1.0

    def test_warm_cache_dominates_repeated_workload(self, srt_processor):
        query = make_queries(1, seed=91)[0]
        with QueryExecutor(srt_processor, max_workers=4) as executor:
            executor.run([query])  # warm the decoded-node cache
            report = executor.run([query] * 10)
        assert report.node_cache_hit_rate > 0.9

    def test_empty_batch(self, srt_processor):
        with QueryExecutor(srt_processor, max_workers=2) as executor:
            report = executor.run([])
        assert report.queries == 0
        assert report.results == []
        assert report.throughput_qps == 0.0
        assert report.node_cache_hit_rate == 0.0


class TestLatencyAccounting:
    def test_run_collects_one_sample_per_executed_query(self, srt_processor):
        queries = make_queries(6, seed=94)
        with QueryExecutor(srt_processor, max_workers=3) as executor:
            report = executor.run(queries, dedup=False)
        assert len(report.latencies_s) == 6
        assert len(report.queue_waits_s) == 6
        assert all(v > 0.0 for v in report.latencies_s)
        assert all(v >= 0.0 for v in report.queue_waits_s)

    def test_dedup_collapses_samples_to_distinct_queries(self, srt_processor):
        query = make_queries(1, seed=95)[0]
        with QueryExecutor(srt_processor, max_workers=2) as executor:
            report = executor.run([query] * 8)
        assert report.queries == 8  # every answered position counts
        assert len(report.latencies_s) == 1  # one execution

    def test_percentiles_are_monotone_and_within_samples(self, srt_processor):
        queries = make_queries(8, seed=96)
        with QueryExecutor(srt_processor, max_workers=4) as executor:
            report = executor.run(queries, dedup=False)
        assert (
            min(report.latencies_s)
            <= report.latency_p50_s
            <= report.latency_p95_s
            <= report.latency_p99_s
            <= max(report.latencies_s)
        )
        assert report.queue_wait_p95_s in report.queue_waits_s

    def test_empty_batch_has_nan_percentiles(self, srt_processor):
        # NaN, not 0.0: "no data" must not read as "instant" in
        # dashboards or regression math (0.0 would pass any latency
        # gate).  Same contract as an all-failures batch.
        import math

        with QueryExecutor(srt_processor, max_workers=2) as executor:
            report = executor.run([])
        assert report.latencies_s == []
        assert math.isnan(report.latency_p99_s)
        assert math.isnan(report.queue_wait_p95_s)

    def test_aggregate_phase_times(self, srt_processor):
        from repro.obs import tracing

        queries = make_queries(4, seed=97)
        with QueryExecutor(srt_processor, max_workers=2) as executor:
            cold = executor.run(queries)
            assert cold.aggregate_phase_times() == {}  # tracing off
            tracing.clear()
            previous = tracing.set_enabled(True)
            try:
                report = executor.run(queries)
            finally:
                tracing.set_enabled(previous)
                tracing.clear()
        totals = report.aggregate_phase_times()
        assert "stps.feature_pull" in totals
        assert all(v >= 0.0 for v in totals.values())

    def test_query_many_records_queue_wait_metric(self, srt_processor):
        from repro.obs import metrics

        family = metrics.registry().histogram(
            "repro_executor_queue_wait_seconds",
            labelnames=("algorithm",),
        )
        before = family.labels(algorithm="stps").count
        queries = make_queries(3, seed=98)
        with QueryExecutor(srt_processor, max_workers=2) as executor:
            executor.query_many(queries, dedup=False)
        assert family.labels(algorithm="stps").count == before + 3
