"""Tests for repro.obs.profiler: sampling, captures, install lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReproError
from repro.obs import flight, profiler, requests
from repro.obs.profiler import CAPTURE_SLACK_S, MAX_CAPTURES, SamplingProfiler


@pytest.fixture(autouse=True)
def clean_profiler_state():
    yield
    # Drain any leftover installs so tests stay independent.
    while profiler.uninstall() or profiler._install_count:
        pass
    requests.configure(
        enabled_=False,
        slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S,
    )
    requests.clear()


def _busy_wait(stop: threading.Event) -> None:
    while not stop.wait(0.001):
        sum(range(100))


@pytest.fixture()
def busy_thread():
    stop = threading.Event()
    thread = threading.Thread(target=_busy_wait, args=(stop,), daemon=True)
    thread.start()
    yield thread
    stop.set()
    thread.join(timeout=5)


class TestSamplingProfiler:
    def test_collects_other_thread_stacks(self, busy_thread):
        with SamplingProfiler(interval_s=0.002) as prof:
            time.sleep(0.06)
        assert prof.ticks > 5
        collapsed = prof.collapsed()
        assert collapsed
        # The busy thread's helper frame appears, in root;...;leaf order.
        assert any("_busy_wait" in stack for stack in collapsed)
        for stack in collapsed:
            assert all(":" in part for part in stack.split(";"))

    def test_own_sampler_thread_excluded(self):
        with SamplingProfiler(interval_s=0.002) as prof:
            time.sleep(0.03)
        assert not any("_loop" in s and "profiler" in s for s in prof.collapsed())

    def test_write_collapsed_format(self, busy_thread, tmp_path):
        with SamplingProfiler(interval_s=0.002) as prof:
            time.sleep(0.04)
        path = prof.write_collapsed(tmp_path / "flame.txt")
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_retention_bounds_ring(self):
        prof = SamplingProfiler(interval_s=0.01, retention_s=0.05)
        assert prof._samples.maxlen == 5

    def test_capture_windows_and_eviction(self, busy_thread):
        with SamplingProfiler(interval_s=0.002) as prof:
            time.sleep(0.05)
            record = prof.capture("trace-a", lookback_s=0.04)
            assert record["trace_id"] == "trace-a"
            assert record["samples"] > 0
            assert record["collapsed"]
            assert prof.capture_for("trace-a") is record
            for i in range(MAX_CAPTURES + 5):
                prof.capture(f"trace-{i}", lookback_s=0.01)
            assert len(prof.captures()) == MAX_CAPTURES
            assert prof.capture_for("trace-a") is None  # oldest evicted

    def test_validation(self):
        with pytest.raises(ReproError):
            SamplingProfiler(interval_s=0.0)
        with pytest.raises(ReproError):
            SamplingProfiler(interval_s=1.0, retention_s=0.5)

    def test_stop_joins_thread(self):
        prof = SamplingProfiler(interval_s=0.002).start()
        assert prof.running
        prof.stop()
        assert not prof.running
        assert not any(
            t.name == "repro-profiler" for t in threading.enumerate()
        )


class TestModuleLifecycle:
    def test_install_refcounting(self):
        assert profiler.install(interval_s=0.002) is True
        first = profiler.get()
        assert first is not None and first.running
        assert profiler.install() is False  # nested: same instance
        assert profiler.get() is first
        assert profiler.uninstall() is False  # one ref still held
        assert profiler.get() is first
        assert profiler.uninstall() is True  # last ref stops it
        assert profiler.get() is None
        assert profiler.uninstall() is False  # extra uninstall is a no-op

    def test_flight_admission_triggers_capture(self, busy_thread):
        from repro.core.query import PreferenceQuery

        profiler.install(interval_s=0.002)
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        requests.clear()
        time.sleep(0.04)  # let the ring fill before the "query" lands
        assert flight.maybe_record(
            PreferenceQuery(5, 0.06, 0.5, (0b11, 0b11)),
            algorithm="stps",
            pulling="prioritized",
            trace_id="trace-slow-1",
            latency_s=0.03,
        )
        capture = profiler.get().capture_for("trace-slow-1")
        assert capture is not None
        assert capture["lookback_s"] == pytest.approx(0.03 + CAPTURE_SLACK_S)
        assert capture["samples"] > 0
