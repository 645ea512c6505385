"""Regression tests: a failing query must never cost a batch its rest.

The contract: every query runs, failures come back as structured
:class:`~repro.core.executor.QueryFailure` records (or one deferred
re-raise), and the executor stays usable afterwards.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.executor import BatchReport, QueryExecutor, QueryFailure
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.errors import QueryError
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.obs import metrics
from repro.text.vocabulary import Vocabulary
from tests.conftest import make_data_objects, make_feature_objects

VOCAB = Vocabulary(f"kw{i}" for i in range(16))
POISON_RADIUS = 0.031337  # the radius the flaky processor faults on


def _query(seed=0, radius=0.05):
    rng = random.Random(seed)
    masks = tuple(
        sum(1 << t for t in rng.sample(range(len(VOCAB)), 3))
        for _ in range(2)
    )
    return PreferenceQuery(5, radius, 0.5, masks)


@pytest.fixture(scope="module")
def processor():
    objects = ObjectDataset(make_data_objects(120, seed=31))
    feature_sets = [
        FeatureDataset(
            make_feature_objects(80, seed=32 + j, vocab_size=len(VOCAB)),
            VOCAB,
            f"set{j}",
        )
        for j in range(2)
    ]
    return QueryProcessor.build(objects, feature_sets)


class _FlakyProcessor:
    """Delegates to a real processor, faulting on the poison radius."""

    def __init__(self, inner):
        self._inner = inner

    def trees(self):
        return self._inner.trees()

    def query(self, query, **kwargs):
        if query.radius == POISON_RADIUS:
            raise RuntimeError("simulated worker crash")
        return self._inner.query(query, **kwargs)


class TestOnErrorReturn:
    def test_failures_are_structured_and_batch_completes(self, processor):
        flaky = _FlakyProcessor(processor)
        queries = [
            _query(seed=1),
            _query(seed=2, radius=POISON_RADIUS),
            _query(seed=3),
            _query(seed=4, radius=POISON_RADIUS),
            _query(seed=5),
        ]
        with QueryExecutor(flaky, max_workers=3) as executor:
            report = executor.run(queries, on_error="return")
        assert isinstance(report, BatchReport)
        assert [r is None for r in report.results] == [
            False, True, False, True, False,
        ]
        assert len(report.failures) == 2
        for failure, expected_index in zip(report.failures, (1, 3)):
            assert isinstance(failure, QueryFailure)
            assert failure.index == expected_index
            assert failure.query is queries[expected_index]
            assert isinstance(failure.error, RuntimeError)
            assert "simulated worker crash" in failure.message
        # Successful positions match a serial run exactly.
        for i in (0, 2, 4):
            expected = processor.query(queries[i])
            assert [
                (item.oid, item.score) for item in report.results[i].items
            ] == [(item.oid, item.score) for item in expected.items]

    def test_dedup_maps_failure_to_first_occurrence(self, processor):
        flaky = _FlakyProcessor(processor)
        bad = _query(seed=7, radius=POISON_RADIUS)
        queries = [_query(seed=6), bad, bad, _query(seed=6)]
        with QueryExecutor(flaky, max_workers=2) as executor:
            report = executor.run(queries, on_error="return", dedup=True)
        assert report.results[1] is None and report.results[2] is None
        assert report.results[0] is not None
        assert report.results[3] is report.results[0]  # shared via dedup
        assert len(report.failures) == 1  # one failed *execution*
        assert report.failures[0].index == 1

    def test_aggregate_phase_times_skips_failed_positions(self, processor):
        flaky = _FlakyProcessor(processor)
        queries = [_query(seed=8), _query(seed=9, radius=POISON_RADIUS)]
        with QueryExecutor(flaky, max_workers=2) as executor:
            report = executor.run(queries, on_error="return")
        assert report.aggregate_phase_times() == {}  # tracing off, no crash

    def test_failures_counted_in_metrics(self, processor):
        flaky = _FlakyProcessor(processor)
        with metrics.scoped_registry() as reg:
            with QueryExecutor(flaky, max_workers=2) as executor:
                executor.query_many(
                    [_query(seed=10, radius=POISON_RADIUS)], on_error="return"
                )
        series = reg.get("repro_executor_failures_total").labels(
            algorithm="stps", error="RuntimeError"
        )
        assert series.value == 1


class TestFailedQueriesCounted:
    """A query that raises inside the engine is still a query."""

    @pytest.fixture()
    def broken(self, processor, monkeypatch):
        def dispatch(*args, **kwargs):
            raise RuntimeError("simulated engine fault")

        monkeypatch.setattr(processor, "_dispatch", dispatch)
        return processor

    def _fail_batch(self, processor, n: int) -> None:
        queries = [_query(seed=40 + i) for i in range(n)]
        with QueryExecutor(processor) as executor:
            report = executor.run(queries, on_error="return", dedup=False)
        assert len(report.failures) == n

    def test_failed_queries_move_queries_total(self, broken):
        with metrics.scoped_registry() as reg:
            self._fail_batch(broken, 20)
        family = reg.get("repro_queries_total")
        assert sum(child.value for _, child in family.series()) == 20


class TestOnErrorRaise:
    def test_raise_waits_for_whole_batch(self, processor):
        """The default mode re-raises, but only after every query ran."""
        ran: list[int] = []

        class Recording(_FlakyProcessor):
            def query(self, query, **kwargs):
                result = super().query(query, **kwargs)
                ran.append(query.k)
                return result

        flaky = Recording(processor)
        queries = [
            _query(seed=11, radius=POISON_RADIUS),
            _query(seed=12),
            _query(seed=13),
        ]
        with QueryExecutor(flaky, max_workers=1) as executor:
            with pytest.raises(RuntimeError, match="simulated"):
                executor.query_many(queries)
        # Poison first: later queries still executed.
        assert len(ran) == 2

    def test_raises_the_first_failure_by_input_order(self, processor):
        class Numbered(_FlakyProcessor):
            calls = 0

            def query(self, query, **kwargs):
                Numbered.calls += 1
                if query.radius == POISON_RADIUS:
                    raise RuntimeError(f"failure k={query.k}")
                return super().query(query, **kwargs)

        queries = [
            _query(seed=17),
            PreferenceQuery(7, POISON_RADIUS, 0.5, (0b111, 0b101)),
            PreferenceQuery(8, POISON_RADIUS, 0.5, (0b111, 0b101)),
            _query(seed=18),
        ]
        with QueryExecutor(Numbered(processor)) as executor:
            with pytest.raises(RuntimeError, match="failure k=7"):
                executor.query_many(queries)
        assert Numbered.calls == 4

    def test_executor_usable_after_failure(self, processor):
        flaky = _FlakyProcessor(processor)
        with QueryExecutor(flaky, max_workers=2) as executor:
            with pytest.raises(RuntimeError):
                executor.query_many([_query(seed=14, radius=POISON_RADIUS)])
            ok = executor.query_many([_query(seed=15)])
            assert len(ok) == 1 and ok[0] is not None

    def test_unknown_mode_rejected(self, processor):
        with QueryExecutor(processor, max_workers=1) as executor:
            with pytest.raises(QueryError, match="on_error"):
                executor.query_many([_query(seed=16)], on_error="ignore")


class TestAllFailuresPercentiles:
    """An all-failures batch has no latency samples — percentiles must
    come back NaN (not raise, not a made-up 0.0)."""

    def test_percentiles_are_nan_not_an_exception(self, processor):
        flaky = _FlakyProcessor(processor)
        queries = [
            _query(seed=20 + i, radius=POISON_RADIUS) for i in range(3)
        ]
        with QueryExecutor(flaky, max_workers=2) as executor:
            report = executor.run(queries, on_error="return")
        assert all(r is None for r in report.results)
        assert len(report.failures) == 3
        for prop in (
            report.latency_p50_s, report.latency_p95_s,
            report.latency_p99_s, report.queue_wait_p95_s,
        ):
            assert math.isnan(prop)
        # Derived aggregates stay well-defined numbers.
        assert report.throughput_qps >= 0.0

    def test_empty_report_percentiles_are_nan(self):
        report = BatchReport()
        assert math.isnan(report.latency_p50_s)
        assert math.isnan(report.queue_wait_p95_s)
