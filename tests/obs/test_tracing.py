"""Tests for repro.obs.tracing: spans, recorders, Chrome trace export."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import tracing


class TestDisabledByDefault:
    def test_disabled_flag(self):
        assert tracing.enabled is False

    def test_span_is_shared_noop(self):
        a = tracing.span("x")
        b = tracing.span("y", cat="other", foo=1)
        assert a is b is tracing.NULL_SPAN
        with a:
            pass
        assert tracing.events() == []

    def test_recorder_is_shared_noop(self):
        rec = tracing.recorder()
        assert rec is tracing.NULL_RECORDER
        assert rec.active is False
        with rec.span("phase"):
            pass
        rec.add("phase", 1.0)
        assert rec.totals() == {}
        assert tracing.events() == []

    def test_disabled_overhead_smoke(self):
        """A disabled span() call stays cheap (loose upper bound)."""
        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            with tracing.span("hot"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0  # ~10 µs/call budget; typically ~0.1 µs


class TestCollectorScope:
    def test_collector_arms_spans_only_inside_its_scope(self):
        collector = tracing.SpanCollector()
        with tracing.trace_scope("t1", collector) as trace_id:
            assert trace_id == "t1" == tracing.current_trace_id()
            with tracing.span("inside", k=1):
                pass
        assert tracing.span("outside") is tracing.NULL_SPAN
        assert tracing.current_trace_id() is None
        (event,) = collector.snapshot()
        assert event["name"] == "inside"
        assert event["args"] == {"k": 1, "trace_id": "t1"}
        assert tracing.events() == []  # global buffer untouched

    def test_resume_carries_id_and_collector_to_another_thread(self):
        collector = tracing.SpanCollector()
        seen = []

        def worker(ctx):
            seen.append(tracing.current_trace_id())  # not inherited
            with tracing.resume(ctx), tracing.span("hop"):
                seen.append(tracing.current_trace_id())

        with tracing.trace_scope("t2", collector):
            thread = threading.Thread(
                target=worker, args=(tracing.capture(),)
            )
            thread.start()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen == [None, "t2"]
        assert [span[0] for span in collector.spans] == ["hop"]


class TestEnabledSpans:
    def test_span_records_complete_event(self):
        tracing.set_enabled(True)
        with tracing.span("query.stps", variant="range", k=5):
            time.sleep(0.001)
        (event,) = tracing.events()
        assert event["name"] == "query.stps"
        assert event["ph"] == "X"
        assert event["cat"] == "query"
        assert event["dur"] >= 500  # microseconds
        assert event["ts"] >= 0
        assert event["args"] == {"variant": "range", "k": 5}
        assert "pid" in event and "tid" in event

    def test_set_enabled_returns_previous(self):
        assert tracing.set_enabled(True) is False
        assert tracing.set_enabled(False) is True

    def test_enabled_tracing_context_restores(self):
        with tracing.enabled_tracing():
            assert tracing.enabled
        assert not tracing.enabled

    def test_event_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_EVENTS", 2)
        tracing.set_enabled(True)
        for i in range(5):
            with tracing.span(f"s{i}"):
                pass
        assert len(tracing.events()) == 2
        assert tracing.dropped_events() == 3
        assert tracing.clear() == 2
        assert tracing.dropped_events() == 0


class TestPhaseRecorder:
    def test_totals_accumulate(self):
        tracing.set_enabled(True)
        rec = tracing.recorder()
        assert isinstance(rec, tracing.PhaseRecorder)
        assert rec.active is True
        with rec.span("pull"):
            time.sleep(0.001)
        with rec.span("pull"):
            time.sleep(0.001)
        with rec.span("assemble"):
            pass
        totals = rec.totals()
        assert set(totals) == {"pull", "assemble"}
        assert totals["pull"] >= 0.002
        # Spans were emitted to the trace buffer too.
        assert len(tracing.events()) == 3

    def test_add_is_thread_safe(self):
        tracing.set_enabled(True)
        rec = tracing.recorder()
        n, workers = 5_000, 4

        def hammer():
            for _ in range(n):
                rec.add("phase", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.totals()["phase"] == pytest.approx(n * workers * 0.001)


class TestChromeTrace:
    def test_schema(self, tmp_path):
        tracing.set_enabled(True)
        with tracing.span("a", cat="query"):
            with tracing.span("b", cat="phase"):
                pass
        doc = tracing.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"a", "b"}
        for event in complete:
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        # thread_name metadata so Perfetto labels the tracks.
        assert meta and all(
            e["name"] == "thread_name" and "name" in e["args"] for e in meta
        )
        # Nesting: the outer span fully contains the inner one.
        by_name = {e["name"]: e for e in complete}
        assert by_name["a"]["ts"] <= by_name["b"]["ts"]
        assert (
            by_name["a"]["ts"] + by_name["a"]["dur"]
            >= by_name["b"]["ts"] + by_name["b"]["dur"]
        )

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracing.set_enabled(True)
        with tracing.span("x"):
            pass
        path = tracing.write_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert any(e.get("name") == "x" for e in doc["traceEvents"])

    def test_clear_drops_events(self):
        tracing.set_enabled(True)
        with tracing.span("x"):
            pass
        assert tracing.clear() == 1
        assert tracing.events() == []
        assert tracing.chrome_trace()["traceEvents"] == []
