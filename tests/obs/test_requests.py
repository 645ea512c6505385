"""Unit tests for :mod:`repro.obs.requests`.

W3C traceparent parsing edge cases, the tail-sampled trace store's
retention guarantees (100% of interesting requests kept, byte bound
held by evicting the boring sample first), and the tree renderer.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import requests as rq
from repro.obs import tracing

VALID = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"


@pytest.fixture(autouse=True)
def clean_store():
    rq.configure(
        enabled_=False,
        max_bytes=rq.DEFAULT_MAX_BYTES,
        slow_threshold_s=rq.DEFAULT_SLOW_THRESHOLD_S,
        uniform_every=rq.DEFAULT_UNIFORM_EVERY,
    )
    rq.clear()
    yield
    rq.configure(
        enabled_=False,
        max_bytes=rq.DEFAULT_MAX_BYTES,
        slow_threshold_s=rq.DEFAULT_SLOW_THRESHOLD_S,
        uniform_every=rq.DEFAULT_UNIFORM_EVERY,
    )
    rq.clear()


class TestParseTraceparent:
    def test_valid_header(self):
        assert rq.parse_traceparent(VALID) == (
            "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7",
        )

    def test_surrounding_whitespace_tolerated(self):
        assert rq.parse_traceparent(f"  {VALID}  ") is not None

    @pytest.mark.parametrize("header", [
        None,
        "",
        "not-a-traceparent",
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",  # 3 fields
        "0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  # ver width
        "00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",  # short tid
        "00-4bf92f3577b34da6a3ce929d0e0e473600-00f067aa0ba902b7-01",
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902-01",  # short pid
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1",  # flags
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
        "zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        "00-XBF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
    ])
    def test_malformed_rejected(self, header):
        assert rq.parse_traceparent(header) is None

    def test_all_zero_trace_id_rejected(self):
        assert rq.parse_traceparent(
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01"
        ) is None

    def test_all_zero_parent_id_rejected(self):
        assert rq.parse_traceparent(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"
        ) is None

    def test_version_ff_rejected(self):
        assert rq.parse_traceparent(
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
        ) is None

    def test_uppercase_hex_rejected(self):
        assert rq.parse_traceparent(VALID.upper()) is None

    def test_version_00_with_extra_fields_rejected(self):
        assert rq.parse_traceparent(VALID + "-extra") is None

    def test_future_version_with_extra_fields_accepted(self):
        header = (
            "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-xyz"
        )
        assert rq.parse_traceparent(header) == (
            "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7",
        )


class TestFormatTraceparent:
    def test_internal_id_padded_to_w3c_width(self):
        header = rq.format_traceparent("deadbeefcafe0123")
        version, trace_id, parent_id, flags = header.split("-")
        assert version == "00"
        assert trace_id == "deadbeefcafe0123".rjust(32, "0")
        assert len(parent_id) == 16
        assert flags == "01"
        # Round-trips through the parser.
        assert rq.parse_traceparent(header)[0] == trace_id

    def test_client_donated_id_preserved(self):
        tid = "4bf92f3577b34da6a3ce929d0e0e4736"
        assert rq.format_traceparent(tid).split("-")[1] == tid

    def test_minted_ids_round_trip_and_are_distinct(self):
        seen = set()
        for _ in range(200):
            tid = tracing.new_trace_id()
            assert len(tid) == 16 and rq._is_hex(tid)
            header = rq.format_traceparent(tid)
            span_id = header.split("-")[2]
            assert rq.parse_traceparent(header) == (
                rq.w3c_trace_id(tid), span_id
            )
            seen.update((tid, span_id))
        assert len(seen) == 400

    def test_minted_ids_are_never_all_zero(self, monkeypatch):
        draws = iter([bytes(8), bytes(8), b"\x00" * 7 + b"\x01"])
        monkeypatch.setattr(tracing.os, "urandom", lambda n: next(draws))
        assert tracing.new_trace_id() == "0000000000000001"

    def test_w3c_trace_id_idempotent(self):
        assert rq.w3c_trace_id(rq.w3c_trace_id("abc")) == rq.w3c_trace_id(
            "abc"
        )


def _fill(
    n: int, outcome: str = "ok", status: int = 200, duration_s: float = 0.0,
    tenant: str = "t", prefix: str = "req",
):
    kept = 0
    for i in range(n):
        kept += rq.record(
            trace_id=f"{prefix}{i:08x}", tenant=tenant, outcome=outcome,
            status=status, duration_s=duration_s,
        )
    return kept


class TestTailSampling:
    def test_disabled_store_records_nothing(self):
        assert _fill(5) == 0
        assert rq.stats()["buffered"] == 0

    def test_interesting_requests_always_kept(self):
        rq.configure(enabled_=True, uniform_every=0)
        assert _fill(20, outcome="error", status=500) == 20
        assert _fill(20, outcome="quota", status=429, prefix="shed") == 20
        assert _fill(
            20, outcome="ok", status=200, duration_s=1.0, prefix="slow"
        ) == 20
        stats = rq.stats()
        assert stats["kept"] == 60
        assert stats["kept_by_reason"] == {
            "error": 20, "shed": 20, "slow": 20,
        }

    def test_uniform_sample_is_deterministic_one_in_n(self):
        rq.configure(enabled_=True, uniform_every=10)
        kept = _fill(100)
        assert kept == 10
        assert all(
            t["keep_reason"] == "uniform" for t in rq.query_traces()
        )

    def test_mixed_load_retains_all_interesting_within_byte_bound(self):
        # Small budget so the mixed load must evict; every interesting
        # request must survive anyway, shed from the uniform sample.
        rq.configure(
            enabled_=True, max_bytes=64 * 1024, slow_threshold_s=0.1,
            uniform_every=2,
        )
        interesting = []
        for i in range(120):
            rq.record(
                trace_id=f"ok{i:08x}", tenant="bulk", outcome="ok",
                status=200, duration_s=0.001,
            )
            if i % 3 == 0:
                tid = f"bad{i:08x}"
                interesting.append(tid)
                rq.record(
                    trace_id=tid, tenant="vip",
                    outcome=("error", "quota", "ok")[i % 3 // 1 % 3],
                    status=(500, 429, 200)[(i // 3) % 3],
                    duration_s=0.5,
                )
        stats = rq.stats()
        assert stats["bytes"] <= stats["max_bytes"]
        stored = {t.trace_id for t in rq.entries()}
        assert set(interesting) <= stored
        assert stats["evicted_interesting"] == 0

    def test_byte_bound_wins_when_everything_is_interesting(self):
        rq.configure(enabled_=True, max_bytes=8 * 1024, uniform_every=0)
        _fill(200, outcome="error", status=500)
        stats = rq.stats()
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["evicted_interesting"] > 0
        assert stats["buffered"] > 0

    def test_uniform_evicted_first_and_order_kept_across_classes(self):
        # One uniform trace is ~270 estimated bytes; budget for ~12.
        rq.configure(enabled_=True, max_bytes=3300, uniform_every=1)
        ids = []
        for i in range(40):
            shed = i % 4 == 0
            ids.append(f"{'shed' if shed else 'ok'}{i:04x}")
            rq.record(
                trace_id=ids[-1], tenant="t",
                outcome="quota" if shed else "ok",
                status=429 if shed else 200, duration_s=0.001,
            )
        stored = [t.trace_id for t in rq.entries()]
        # Admission order survives the split by eviction class ...
        assert stored == [i for i in ids if i in set(stored)]
        # ... every shed trace outlived the older uniform ones ...
        assert [i for i in stored if i.startswith("shed")] == ids[::4]
        stats = rq.stats()
        assert stats["evicted_uniform"] > 0
        assert stats["evicted_interesting"] == 0
        # ... and the uniform survivors are the newest.
        uniform = [i for i in ids if i.startswith("ok")]
        kept_uniform = [i for i in stored if i.startswith("ok")]
        assert kept_uniform == uniform[-len(kept_uniform):]

    def test_slow_threshold_zero_keeps_everything(self):
        rq.configure(enabled_=True, slow_threshold_s=0.0, uniform_every=0)
        assert _fill(10) == 10
        assert all(t["keep_reason"] == "slow" for t in rq.query_traces())

    def test_span_cap_per_trace(self):
        rq.configure(enabled_=True)
        spans = [
            {"name": f"s{i}", "ts": float(i), "dur": 1.0}
            for i in range(rq.MAX_SPANS_PER_TRACE + 100)
        ]
        rq.record(
            trace_id="big", tenant="t", outcome="error", status=500,
            duration_s=0.0, spans=spans,
        )
        (trace,) = rq.query_traces(trace_id="big")
        assert len(trace["spans"]) == rq.MAX_SPANS_PER_TRACE


    def test_byte_budget_counts_error_text(self):
        """A failed query's message is charged to its entry: 20 errors of
        5 000 characters under a 20 000-byte budget stay near it."""
        from repro.core.processor import QueryProcessor
        from repro.core.query import PreferenceQuery
        from repro.data.synthetic import (
            synthetic_feature_sets, synthetic_objects,
        )
        from repro.errors import QueryError

        processor = QueryProcessor.build(
            synthetic_objects(60, seed=5),
            synthetic_feature_sets(2, 40, 16, seed=6),
        )

        def fail(*args):
            raise QueryError("x" * 5000)

        processor._dispatch = fail
        rq.configure(enabled_=True, max_bytes=20_000)
        for _ in range(20):
            with pytest.raises(QueryError):
                processor.query(PreferenceQuery(3, 0.1, 0.5, (1, 1)))
        kept = rq.entries()
        assert kept
        for entry in kept:
            (record,) = entry.to_dict()["records"]
            assert entry.approx_bytes >= len(record["error"]["message"])
        dumped = sum(len(json.dumps(entry.to_dict())) for entry in kept)
        assert dumped <= 2 * 20_000


class TestQueryAndDump:
    def test_filters_compose(self):
        rq.configure(enabled_=True, uniform_every=0)
        rq.record(trace_id="a1", tenant="acme", outcome="error",
                  status=500, duration_s=0.2)
        rq.record(trace_id="b1", tenant="bob", outcome="error",
                  status=500, duration_s=0.002)
        rq.record(trace_id="b2", tenant="bob", outcome="quota",
                  status=429, duration_s=0.3)
        assert {t["trace_id"] for t in rq.query_traces(tenant="bob")} == {
            "b1", "b2",
        }
        assert [t["trace_id"] for t in rq.query_traces(min_ms=100.0)] == [
            "b2", "a1",
        ]
        assert rq.query_traces(tenant="bob", min_ms=100.0)[0][
            "trace_id"
        ] == "b2"

    def test_get_matches_short_and_w3c_forms(self):
        rq.configure(enabled_=True, uniform_every=0)
        rq.record(trace_id="deadbeefcafe0123", tenant="t",
                  outcome="error", status=500, duration_s=0.0)
        assert rq.get("deadbeefcafe0123") is not None
        assert rq.get("deadbeefcafe0123".rjust(32, "0")) is not None
        assert rq.get("f" * 32) is None

    def test_payload_shape_and_dump_jsonl(self, tmp_path):
        rq.configure(enabled_=True, uniform_every=0)
        rq.record(trace_id="x1", tenant="t", outcome="error", status=500,
                  duration_s=0.0)
        doc = rq.payload()
        assert doc["stats"]["buffered"] == 1
        assert doc["traces"][0]["trace_id"] == "x1"
        json.dumps(doc, allow_nan=False)
        path = rq.dump_jsonl(tmp_path / "traces.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["trace_id"] == "x1"


class TestRenderTraceTree:
    def test_nesting_by_time_containment(self):
        trace = {
            "trace_id": "t1", "tenant": "acme", "outcome": "ok",
            "status": 200, "duration_s": 0.012, "keep_reason": "slow",
            "spans": [
                {"name": "serve.request", "ts": 0.0, "dur": 1000.0},
                {"name": "serve.quota", "ts": 10.0, "dur": 20.0},
                {"name": "serve.execute", "ts": 100.0, "dur": 800.0},
                {"name": "executor.query", "ts": 150.0, "dur": 700.0,
                 "args": {"algorithm": "stps"}},
            ],
        }
        out = rq.render_trace_tree(trace)
        lines = out.splitlines()
        assert "trace t1" in lines[0] and "12.00ms" in lines[0]
        indent = {
            line.strip().split()[1]: len(line) - len(line.lstrip())
            for line in lines[1:]
        }
        assert indent["serve.quota"] > indent["serve.request"]
        assert indent["serve.execute"] > indent["serve.request"]
        assert indent["executor.query"] > indent["serve.execute"]
        assert "algorithm=stps" in out

    def test_spanless_trace_renders(self):
        out = rq.render_trace_tree({
            "trace_id": "t2", "tenant": "t", "outcome": "quota",
            "status": 429, "duration_s": 0.0, "keep_reason": "shed",
            "reason": "tenant 't' over quota", "spans": [],
        })
        assert "no spans recorded" in out
        assert "over quota" in out
