"""End-to-end tests for ``python -m repro.obs`` and the instrumentation.

These run a miniature workload through the real query stack and check
the acceptance criteria: the Prometheus snapshot contains query latency
histograms labeled by algorithm, and the Chrome trace contains spans for
feature pulls, combination assembly and R-tree node expansion.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics, tracing
from repro.obs.cli import build_parser, main

TINY = [
    "--objects", "400",
    "--features", "200",
    "--sets", "2",
    "--queries", "3",
    "--repeats", "2",
    "--vocab", "16",
]


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
        assert "--trace-out" in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.algorithms == ["stps", "stds"]
        assert not args.smoke

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--algorithms", "magic"])


class TestEndToEnd:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), *TINY])
        assert rc == 0
        return tmp_path

    def test_writes_all_artifacts(self, artifacts):
        assert (artifacts / "obs_trace.json").exists()
        assert (artifacts / "obs_metrics.prom").exists()
        assert (artifacts / "obs_metrics.json").exists()

    def test_prometheus_snapshot_has_labeled_latency_histograms(
        self, artifacts
    ):
        text = (artifacts / "obs_metrics.prom").read_text()
        assert "# TYPE repro_query_seconds histogram" in text
        for algorithm in ("stps", "stds"):
            assert f'algorithm="{algorithm}"' in text
        assert "repro_query_seconds_bucket{" in text
        assert "repro_features_pulled_total" in text
        assert "repro_executor_queue_wait_seconds" in text
        assert "repro_index_node_cache_hit_rate" in text

    def test_trace_has_required_spans(self, artifacts):
        doc = json.loads((artifacts / "obs_trace.json").read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        for required in (
            "query.stps",
            "query.stds",
            "stps.feature_pull",
            "stps.combination_assembly",
            "stds.chunk_scan",
            "rtree.node_expand",
        ):
            assert required in names, f"missing span {required}"

    def test_json_snapshot_has_percentiles(self, artifacts):
        doc = json.loads((artifacts / "obs_metrics.json").read_text())
        series = doc["repro_query_seconds"]["series"]
        assert series
        for s in series:
            assert s["p50"] <= s["p95"] <= s["p99"]

    def test_tracing_disabled_after_run(self, artifacts):
        assert not tracing.enabled


class TestNoTrace:
    def test_metrics_only_run(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "--no-trace", *TINY])
        assert rc == 0
        assert not (tmp_path / "obs_trace.json").exists()  # no trace written
        assert tracing.events() == []  # and no spans recorded
        text = (tmp_path / "obs_metrics.prom").read_text()
        assert "repro_query_seconds_bucket{" in text  # metrics still on


class TestInstrumentationNeutrality:
    def test_tracing_does_not_change_results(self, srt_processor):
        from repro.core.query import PreferenceQuery

        q = PreferenceQuery(
            k=5, radius=0.08, lam=0.5, keyword_masks=(0b11, 0b110)
        )
        metrics.registry().reset()
        plain = srt_processor.query(q)
        assert plain.stats.phase_times == {}  # tracing off: no breakdown
        with tracing.enabled_tracing():
            traced = srt_processor.query(q)
        assert traced.oids == plain.oids
        assert traced.scores == plain.scores
        assert traced.stats.phase_times  # tracing on: breakdown present
        assert all(v >= 0.0 for v in traced.stats.phase_times.values())

    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    def test_phase_times_cover_known_phases(self, srt_processor, algorithm):
        from repro.core.query import PreferenceQuery

        q = PreferenceQuery(
            k=5, radius=0.08, lam=0.5, keyword_masks=(0b11, 0b110)
        )
        with tracing.enabled_tracing():
            result = srt_processor.query(q, algorithm=algorithm)
        phases = set(result.stats.phase_times)
        if algorithm == "stps":
            assert "stps.feature_pull" in phases
            assert "stps.combination_assembly" in phases
        else:
            assert "stds.scan_objects" in phases
            assert "stds.chunk_scan" in phases


class TestTelemetryMode:
    @pytest.fixture(scope="class")
    def artifacts_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("telemetry")
        code = main(
            TINY + [
                "--telemetry", "--no-trace", "--algorithms", "stps",
                "--sample-interval", "0.05", "--out-dir", str(out),
            ]
        )
        assert code == 0
        return out

    def test_writes_telemetry_artifacts(self, artifacts_dir):
        for name in (
            "timeseries.json", "dashboard.html", "slo_verdict.json",
            "flamegraph.txt", "obs_metrics.om",
        ):
            assert (artifacts_dir / name).exists(), name

    def test_timeseries_has_query_activity(self, artifacts_dir):
        doc = json.loads((artifacts_dir / "timeseries.json").read_text())
        assert doc["slots"] >= 2
        deltas = [
            s["rates"].get("repro_queries_total", 0.0) * s["dt"]
            for s in doc["timeline"] if s.get("rates")
        ]
        assert sum(deltas) > 0  # the workload's queries landed in slots

    def test_slo_verdict_budget_math_consistent(self, artifacts_dir):
        doc = json.loads((artifacts_dir / "slo_verdict.json").read_text())
        assert {"slos", "firing", "exhausted", "ok"} <= set(doc)
        for verdict in doc["slos"]:
            budget = verdict["error_budget"]
            assert verdict["total"] == verdict["good"] + verdict["bad"]
            assert budget["total"] == pytest.approx(
                (1 - verdict["objective"]) * verdict["total"]
            )
            assert budget["consumed"] == verdict["bad"]
            assert budget["exhausted"] == (
                budget["consumed"] > budget["total"]
            )

    def test_openmetrics_artifact_wellformed(self, artifacts_dir):
        text = (artifacts_dir / "obs_metrics.om").read_text()
        assert text.endswith("# EOF\n")
        assert "repro_query_seconds_bucket" in text

    def test_exemplars_and_profiler_off_after_run(self, artifacts_dir):
        from repro.obs import profiler
        from repro.obs.metrics import exemplars_enabled

        assert not exemplars_enabled
        assert profiler.get() is None


class TestWatchRender:
    def test_renders_windows_gauges_and_slos(self):
        from repro.obs.cli import render_watch

        payload = {
            "slots": 5, "capacity": 600, "samples_taken": 5,
            "windows": {
                "60": {
                    "span_s": 4.0,
                    "rates": {"repro_queries_total": 12.5},
                    "hist": {"repro_query_seconds": {
                        "count": 50, "p50": 0.004, "p95": 0.02, "p99": 0.08,
                    }},
                },
            },
            "timeline": [{
                "ts": 0.0, "dt": 1.0,
                "gauges": {
                    "repro_resource_rss_bytes": 64 << 20,
                    "repro_resource_threads": 7,
                },
            }],
            "slo": {"slos": [{
                "slo": "query_latency_p95_100ms",
                "firing": False,
                "error_budget": {
                    "consumed": 1, "total": 2.5,
                    "consumed_fraction": 0.4, "exhausted": False,
                },
            }]},
        }
        text = render_watch(payload)
        assert "repro telemetry — 5/600 slots" in text
        assert "12.5" in text      # qps
        assert "20.00" in text     # p95 in ms
        assert "rss_bytes" in text and "64.0 MiB" in text
        assert "query_latency_p95_100ms" in text and "ok" in text
        assert "40.0% used" in text

    def test_handles_empty_payload(self):
        from repro.obs.cli import render_watch

        text = render_watch({})
        assert "repro telemetry" in text

    def test_watch_against_live_server(self):
        from repro.obs.cli import main as cli_main
        from repro.obs.export import MetricsServer
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.timeseries import TimeSeriesRing

        reg = MetricsRegistry()
        ring = TimeSeriesRing(registry=reg)
        ring.sample()
        with MetricsServer(reg, port=0, ring=ring) as server:
            code = cli_main([
                "watch", "--url", f"http://127.0.0.1:{server.port}",
                "--iterations", "1", "--interval", "0.01",
            ])
        assert code == 0

    def test_watch_unreachable_exits_nonzero(self, capsys):
        from repro.obs.cli import main as cli_main

        code = cli_main([
            "watch", "--url", "http://127.0.0.1:9", "--iterations", "1",
        ])
        assert code == 1


class TestSloSubcommand:
    def test_healthy_run_exits_zero(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = main([
            "slo", "--smoke", "--queries", "3", "--repeats", "1",
            "--objects", "400", "--features", "200", "--vocab", "16",
            "--algorithms", "stps", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["slos"]

    def test_exhausted_budget_exits_nonzero(self, tmp_path):
        # An impossible latency SLO (nothing finishes in 100 ns) must
        # trip the gate.
        slo_file = tmp_path / "slo.json"
        slo_file.write_text(json.dumps({"slos": [{
            "name": "impossible", "kind": "latency", "objective": 0.99,
            "metric": "repro_query_seconds", "threshold_s": 1e-7,
            "window_s": 300.0,
            "alerts": [],
        }]}))
        code = main([
            "slo", "--smoke", "--queries", "3", "--repeats", "1",
            "--objects", "400", "--features", "200", "--vocab", "16",
            "--algorithms", "stps", "--slo-file", str(slo_file),
        ])
        assert code == 1
