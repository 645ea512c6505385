"""End-to-end tests for ``python -m repro.obs`` and the instrumentation.

These run a miniature workload through the real query stack and check
the acceptance criteria: the Prometheus snapshot contains query latency
histograms labeled by algorithm, and the Chrome trace contains spans for
feature pulls, combination assembly and R-tree node expansion.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics, requests, tracing
from repro.obs.cli import build_parser, main, run_workload

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
        rc = main([
            "--out-dir", str(tmp_path), *TINY,
            "--flight-out", str(tmp_path / "flight.jsonl"),
        ])
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
        assert not requests.enabled

    def test_flight_out_has_one_line_per_executed_query(self, artifacts):
        """The executor dedups the repeats: 3 distinct queries under
        each of 2 algorithms execute 6 times, however often answered."""
        lines = (artifacts / "flight.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 3 * 2
        assert sorted(r["algorithm"] for r in records) == (
            ["stds"] * 3 + ["stps"] * 3
        )
        for record in records:
            assert record["trace_id"]
            assert record["counters"]["nodes_expanded"] > 0
            assert record["latency_s"] > 0
        assert len({r["trace_id"] for r in records}) == 6


class TestPhaseTimes:
    def test_phase_sum_within_batch_wall_across_repeats(self):
        """Each repeat of a deduplicated batch shares one result; summing
        ``report.results`` counted its phases once per repeat and printed
        more phase time than the batch took."""
        args = build_parser().parse_args([*TINY, "--repeats", "3"])
        with tracing.enabled_tracing():
            summary = run_workload(args)
        for algorithm, row in summary["algorithms"].items():
            phases = row["phase_times_s"]
            assert phases, algorithm
            assert sum(phases.values()) <= row["wall_s"], (algorithm, row)


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


@pytest.fixture()
def trace_store():
    """The request-trace store on, keeping every request, then reset."""
    requests.clear()
    requests.configure(enabled_=True, slow_threshold_s=0.0)
    yield
    requests.configure(
        enabled_=False, slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S
    )
    requests.clear()


class TestTraceSubcommand:
    @pytest.fixture()
    def serve_url(self, srt_processor, trace_store):
        from repro.core.executor import QueryExecutor
        from repro.serve.http import ServeServer
        from repro.serve.service import QueryService, ServeConfig

        with QueryExecutor(srt_processor, max_workers=1) as executor:
            service = QueryService(executor, ServeConfig())
            with ServeServer(service, port=0) as server:
                yield f"http://127.0.0.1:{server.port}"

    def test_url_renders_the_kept_request_span_tree(self, serve_url, capsys):
        import urllib.request

        body = {"tenant": "acme", "k": 3, "radius": 0.21, "lam": 0.5,
                "masks": [0xFF, 0xFF]}
        req = urllib.request.Request(
            serve_url + "/query", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=5) as resp:
            trace_id = json.load(resp)["trace_id"]
        capsys.readouterr()
        assert main(["trace", trace_id, "--url", serve_url]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"trace {trace_id}  tenant=acme  outcome=ok")
        for span in ("serve.request", "serve.execute", "executor.query"):
            assert f"- {span}  " in out, out

    def test_unknown_id_exits_1(self, serve_url, capsys):
        assert main(["trace", "f" * 32, "--url", serve_url]) == 1
        assert "no stored trace" in capsys.readouterr().err

    def test_file_filters_by_tenant_and_latency(
        self, trace_store, tmp_path, capsys
    ):
        a, b, c = "a" * 32, "b" * 32, "c" * 32
        for trace_id, tenant, duration_s in (
            (a, "acme", 0.002), (b, "acme", 0.250), (c, "other", 0.300),
        ):
            requests.record(trace_id, tenant, "ok", 200, duration_s)
        dump = requests.dump_jsonl(tmp_path / "traces.jsonl")
        requests.clear()  # the dump, not the store, is the source

        def listed(*flags):
            capsys.readouterr()
            assert main(["trace", "--file", str(dump), "--json", *flags]) == 0
            return sorted(t["trace_id"] for t in json.loads(
                capsys.readouterr().out
            ))

        assert listed() == [a, b, c]
        assert listed("--tenant", "acme") == [a, b]
        assert listed("--min-ms", "100") == [b, c]
        assert listed("--tenant", "acme", "--min-ms", "100") == [b]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_min_ms_is_a_usage_error(
        self, value, tmp_path, capsys
    ):
        """As ``/traces.json?min_ms=`` refuses them: nan used to turn the
        ``--file`` filter off and inf to list nothing."""
        dump = tmp_path / "traces.jsonl"
        dump.write_text(json.dumps({"trace_id": "a" * 32}) + "\n")
        for source in (["--file", str(dump)],
                       ["--url", "http://127.0.0.1:9"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["trace", *source, f"--min-ms={value}"])
            assert excinfo.value.code == 2
            assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trace", "a" * 32],
        ["trace", "--url", "http://127.0.0.1:9", "--file", "x.jsonl"],
    ], ids=["no-source", "both-sources"])
    def test_exactly_one_source_or_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--url" in capsys.readouterr().err


def _json_counters(doc: dict) -> dict[str, float]:
    """``QueryPlan.counters()`` rebuilt from a ``--json`` plan document."""
    out = {
        "repro_combinations_total": float(
            doc.get("combinations", {}).get("released", 0)
        ),
        "repro_objects_scored_total": float(doc["objects_scored"]),
    }
    for diag in doc["feature_sets"]:
        out[f"repro_features_pulled_total[{diag['set_id']}]"] = float(
            diag["features_pulled"]
        )
    for verdict, count in doc.get("shard_outcomes", {}).items():
        out[f"repro_shard_queries[{verdict}]"] = float(count)
    return out


class TestExplainSubcommand:
    @pytest.mark.parametrize("shards", [0, 2])
    def test_json_plan_matches_processor_explain(self, shards, capsys):
        from repro.core.processor import QueryProcessor
        from repro.data.synthetic import (
            synthetic_feature_sets,
            synthetic_objects,
        )
        from repro.data.workload import WorkloadSpec, make_workload
        from repro.shard import ShardedQueryProcessor

        assert main([
            "explain", "--json", "--shards", str(shards), "--objects", "400",
            "--features", "200", "--vocab", "16", "--k", "5",
            "--radius", "0.1",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)

        # The same world and query, built as ``run_explain`` builds them.
        objects = synthetic_objects(400, seed=42)
        feature_sets = synthetic_feature_sets(2, 200, 16, seed=43)
        query = make_workload(
            feature_sets, WorkloadSpec(n_queries=1, k=5, radius=0.1, seed=49)
        )[0]
        if shards:
            with ShardedQueryProcessor.build(
                objects, feature_sets, shards=shards, radius=0.1,
                replication="halo",
            ) as sharded:
                plan = sharded.explain(query).plan
        else:
            plan = QueryProcessor.build(objects, feature_sets).explain(
                query
            ).plan

        assert doc["schema_version"] == plan.schema_version
        assert doc["algorithm"] == plan.algorithm
        assert _json_counters(doc) == plan.counters()
        assert plan.counters()["repro_combinations_total"] > 0
        assert doc["feature_sets"] == [d.to_dict() for d in plan.feature_sets]
        assert doc.get("shard_outcomes") == (
            plan.shard_outcomes() if shards else None
        )
