"""Tests for repro.obs.metrics: types, labels, buckets, thread safety."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    log_buckets,
    registry,
)


@pytest.fixture()
def reg() -> MetricsRegistry:
    return MetricsRegistry()


class TestBuckets:
    def test_default_buckets_are_geometric(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-5)
        ratios = [
            b / a
            for a, b in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        ]
        assert all(r == pytest.approx(2.0) for r in ratios)
        # Spans microseconds to > 1 minute, as the workloads need.
        assert DEFAULT_LATENCY_BUCKETS[-1] > 60.0

    def test_log_buckets(self):
        assert log_buckets(1.0, 10.0, 3) == (1.0, 10.0, 100.0)

    @pytest.mark.parametrize(
        "start,factor,count", [(0.0, 2.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 0)]
    )
    def test_log_buckets_validation(self, start, factor, count):
        with pytest.raises(ReproError):
            log_buckets(start, factor, count)

    def test_bucket_edge_is_inclusive(self, reg):
        """``le`` semantics: a value equal to a bound lands in that bucket."""
        h = reg.histogram("h", buckets=[1.0, 2.0, 4.0])
        h.observe(1.0)
        h.observe(2.0)
        h.observe(2.0000001)
        h.observe(100.0)  # +Inf bucket
        child = h.labels()
        assert child.bucket_counts() == [1, 1, 1, 1]
        assert child.cumulative_counts() == [1, 2, 3, 4]
        assert child.count == 4
        assert child.sum == pytest.approx(1.0 + 2.0 + 2.0000001 + 100.0)

    def test_unsorted_buckets_rejected(self, reg):
        with pytest.raises(ReproError):
            reg.histogram("bad", buckets=[1.0, 1.0])
        with pytest.raises(ReproError):
            reg.histogram("bad2", buckets=[])


class TestQuantiles:
    def test_empty_histogram(self, reg):
        h = reg.histogram("h", buckets=[1.0, 2.0])
        assert h.quantile(0.5) == 0.0

    def test_interpolation_within_bucket(self, reg):
        h = reg.histogram("h", buckets=[1.0, 2.0, 4.0])
        for _ in range(100):
            h.observe(1.5)  # all in the (1, 2] bucket
        # Interpolates linearly across (1.0, 2.0].
        assert 1.0 < h.quantile(0.5) <= 2.0
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_in_inf_bucket_returns_top_bound(self, reg):
        h = reg.histogram("h", buckets=[1.0, 2.0])
        h.observe(50.0)
        assert h.quantile(0.99) == 2.0

    def test_quantile_domain(self, reg):
        h = reg.histogram("h", buckets=[1.0])
        with pytest.raises(ReproError):
            h.quantile(0.0)
        with pytest.raises(ReproError):
            h.quantile(1.5)

    def test_percentile_properties(self, reg):
        h = reg.histogram("h")
        for i in range(1, 101):
            h.observe(i / 1000.0)  # 1 ms .. 100 ms
        child = h.labels()
        assert child.p50 <= child.p95 <= child.p99


class TestCounterGauge:
    def test_counter_monotonic(self, reg):
        c = reg.counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ReproError):
            c.inc(-1.0)

    def test_gauge_set_inc_dec(self, reg):
        g = reg.gauge("g")
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value == pytest.approx(13.0)


class TestLabels:
    def test_label_children_are_distinct(self, reg):
        c = reg.counter("c", labelnames=("algorithm",))
        c.labels(algorithm="stps").inc()
        c.labels(algorithm="stds").inc(2)
        assert c.labels(algorithm="stps").value == 1
        assert c.labels(algorithm="stds").value == 2
        assert [lv for lv, _ in c.series()] == [("stds",), ("stps",)]

    def test_label_mismatch_rejected(self, reg):
        c = reg.counter("c", labelnames=("algorithm",))
        with pytest.raises(ReproError):
            c.labels(wrong="x")
        with pytest.raises(ReproError):
            c.labels()
        with pytest.raises(ReproError):
            c.inc()  # labeled family has no sole child

    @pytest.mark.parametrize("given, got", [
        ({"a": "1", "b": "2", "c": "3"}, "('a', 'b', 'c')"),  # extra
        ({"b": "2", "c": "3"}, "('b', 'c')"),                 # swapped
        ({"a": "1"}, "('a',)"),                               # missing
    ], ids=["extra", "wrong", "missing"])
    def test_two_label_mismatch_names_both_sides(self, reg, given, got):
        c = reg.counter("c", labelnames=("a", "b"))
        with pytest.raises(ReproError) as excinfo:
            c.labels(**given)
        assert str(excinfo.value) == (
            f"metric 'c' expects labels ('a', 'b'), got {got}"
        )
        assert c.series() == []

    def test_invalid_names_rejected(self, reg):
        with pytest.raises(ReproError):
            reg.counter("9starts_with_digit")
        with pytest.raises(ReproError):
            reg.counter("has space")
        with pytest.raises(ReproError):
            reg.counter("ok", labelnames=("bad-label",))
        with pytest.raises(ReproError):
            reg.counter("ok", labelnames=("a", "a"))


class TestRegistry:
    def test_registration_idempotent(self, reg):
        a = reg.counter("c", "help", ("x",))
        b = reg.counter("c", "other help", ("x",))
        assert a is b

    def test_type_mismatch_rejected(self, reg):
        reg.counter("c")
        with pytest.raises(ReproError):
            reg.gauge("c")
        with pytest.raises(ReproError):
            reg.counter("c", labelnames=("x",))

    def test_reset_keeps_registrations(self, reg):
        c = reg.counter("c", labelnames=("x",))
        h = reg.histogram("h")
        c.labels(x="1").inc(5)
        h.observe(0.1)
        assert reg.reset() == 2
        assert reg.counter("c", labelnames=("x",)) is c
        assert c.labels(x="1").value == 0
        assert h.labels().count == 0

    def test_unregister(self, reg):
        reg.counter("c")
        assert reg.unregister("c")
        assert not reg.unregister("c")
        assert reg.get("c") is None

    def test_default_registry_is_shared(self):
        assert registry() is registry()


class TestThreadSafety:
    def test_concurrent_counter_increments_are_exact(self, reg):
        c = reg.counter("c", labelnames=("worker",))
        rounds, workers = 2_000, 8

        def hammer(i: int) -> None:
            child = c.labels(worker=str(i % 2))
            for _ in range(rounds):
                child.inc()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))
        total = sum(child.value for _, child in c.series())
        assert total == rounds * workers

    def test_concurrent_histogram_observations_are_exact(self, reg):
        h = reg.histogram("h")
        rounds, workers = 2_000, 8

        def hammer(i: int) -> None:
            child = h.labels()
            for j in range(rounds):
                child.observe(1e-4 * (1 + (j % 7)))

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))
        child = h.labels()
        assert child.count == rounds * workers
        assert sum(child.bucket_counts()) == rounds * workers
        assert not math.isnan(child.sum)
