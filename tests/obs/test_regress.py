"""Tests for repro.obs.regress: the perf-regression sentinel."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.obs import regress

REPO_ROOT = Path(__file__).resolve().parents[2]

SHARDS_DOC = {
    "benchmark": "shard-scaling",
    "config": {
        "objects": 1000, "features_per_set": 600, "feature_sets": 3,
        "queries": 4, "cpus": 8, "workers": 4, "python": "3.11.7",
    },
    "headline_algorithm": "stps",
    "results": [
        {
            "algorithm": "stps", "queries": 4,
            "shards": [
                {"shards": 2, "speedup_cold": 1.9},
                {"shards": 4, "speedup_cold": 4.2},
            ],
            "speedup_cold_s4": 4.2,
            "combinations": {"released": 20, "rejected_2r": 7},
        },
    ],
}


class TestCompareDocs:
    def test_identical_docs_pass_matched_mode(self):
        verdict = regress.compare_docs(SHARDS_DOC, SHARDS_DOC)
        assert verdict["mode"] == "matched"
        assert verdict["ok"] is True
        assert {c["unit"] for c in verdict["checks"]} == {"shards/stps"}

    def test_synthetic_2x_slowdown_fails(self):
        slowed = copy.deepcopy(SHARDS_DOC)
        slowed["results"][0]["speedup_cold_s4"] /= 2.0
        verdict = regress.compare_docs(SHARDS_DOC, slowed)
        assert verdict["mode"] == "matched"
        assert verdict["ok"] is False
        (failing,) = [c for c in verdict["checks"] if not c["ok"]]
        assert failing["rule"] == "ratio"

    def test_noise_within_tolerance_passes(self):
        noisy = copy.deepcopy(SHARDS_DOC)
        noisy["results"][0]["speedup_cold_s4"] *= 0.8  # inside the 45% budget
        assert regress.compare_docs(SHARDS_DOC, noisy)["ok"] is True

    def test_machine_keys_do_not_break_matched_mode(self):
        other = copy.deepcopy(SHARDS_DOC)
        other["config"]["python"] = "3.12.1"
        other["config"]["workers"] = 8
        other["config"]["cpus"] = 16
        verdict = regress.compare_docs(SHARDS_DOC, other)
        assert verdict["mode"] == "matched"

    def test_workload_mismatch_uses_floor_mode(self):
        smoke = copy.deepcopy(SHARDS_DOC)
        smoke["config"]["objects"] = 500  # different workload shape
        verdict = regress.compare_docs(SHARDS_DOC, smoke)
        assert verdict["mode"] == "floor"
        assert verdict["ok"] is True  # 4.2 clears the 0.4 overhead cap
        assert {c["rule"] for c in verdict["checks"]} == {"floor", "ceiling"}

    def test_floor_mode_catches_lost_speedup(self):
        smoke = copy.deepcopy(SHARDS_DOC)
        smoke["config"]["objects"] = 500
        smoke["results"][0]["speedup_cold_s4"] = 0.3  # past the cap
        verdict = regress.compare_docs(SHARDS_DOC, smoke)
        assert verdict["ok"] is False

    def test_shard_floor_mode_uses_headline(self):
        smoke = copy.deepcopy(SHARDS_DOC)
        smoke["config"]["objects"] = 500
        verdict = regress.compare_docs(SHARDS_DOC, smoke)
        assert verdict["mode"] == "floor"
        assert verdict["ok"] is True
        overhead, wasted = verdict["checks"]
        assert overhead["unit"] == wasted["unit"] == "shards/stps"
        assert overhead["threshold"] == regress.SHARD_FANOUT_FLOOR
        # One core, linear work: no speed-up is demanded of the fan-out,
        # only that it stays within its overhead cap.
        smoke["results"][0]["speedup_cold_s4"] = 0.8
        assert regress.compare_docs(SHARDS_DOC, smoke)["ok"] is True
        smoke["results"][0]["speedup_cold_s4"] = 0.3
        assert regress.compare_docs(SHARDS_DOC, smoke)["ok"] is False

    @pytest.mark.parametrize("config_objects", [1000, 500])
    def test_wasted_work_ceiling_gates_both_modes(self, config_objects):
        """Rejections above ``c * released`` fail whatever the timings."""
        current = copy.deepcopy(SHARDS_DOC)
        current["config"]["objects"] = config_objects
        current["results"][0]["combinations"]["rejected_2r"] = 60
        assert regress.compare_docs(SHARDS_DOC, current)["ok"] is True
        current["results"][0]["combinations"]["rejected_2r"] = 61
        verdict = regress.compare_docs(SHARDS_DOC, current)
        assert verdict["ok"] is False
        (failing,) = [c for c in verdict["checks"] if not c["ok"]]
        assert failing["rule"] == "ceiling"
        assert failing["metric"] == "combinations_rejected_2r"

    def test_speedup_cold_s4_fallback_from_rows(self):
        doc = copy.deepcopy(SHARDS_DOC)
        del doc["results"][0]["speedup_cold_s4"]
        metrics = regress.extract_metrics(doc)
        assert metrics["shards/stps"]["speedup_cold_s4"] == 4.2

    def test_benchmark_type_mismatch_is_invalid(self):
        serve = {**SHARDS_DOC, "benchmark": "serve-load"}
        verdict = regress.compare_docs(serve, SHARDS_DOC)
        assert verdict["mode"] == "invalid"
        assert verdict["ok"] is False

    def test_missing_metric_fails(self):
        broken = copy.deepcopy(SHARDS_DOC)
        del broken["results"][0]["speedup_cold_s4"]
        del broken["results"][0]["shards"]
        verdict = regress.compare_docs(SHARDS_DOC, broken)
        assert verdict["ok"] is False
        assert "present" in {c["rule"] for c in verdict["checks"]}


class TestCli:
    def _write(self, tmp_path, name, doc) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_pass_run_writes_verdict_and_history(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", SHARDS_DOC)
        verdict_path = tmp_path / "verdict.json"
        history_path = tmp_path / "history.jsonl"
        rc = regress.main([
            "--pair", base, base,
            "--verdict", str(verdict_path),
            "--history", str(history_path),
        ])
        assert rc == 0
        doc = json.loads(verdict_path.read_text())
        assert doc["schema_version"] == regress.SENTINEL_SCHEMA_VERSION
        assert doc["ok"] is True
        assert doc["pairs"][0]["mode"] == "matched"
        (line,) = history_path.read_text().splitlines()
        record = json.loads(line)
        assert record["ok"] is True
        assert record["git_sha"]
        assert record["timestamp"]
        assert (
            record["pairs"][0]["metrics"]["shards/stps:speedup_cold_s4"] == 4.2
        )
        assert "PASS" in capsys.readouterr().out

    def test_history_appends(self, tmp_path):
        base = self._write(tmp_path, "base.json", SHARDS_DOC)
        history_path = tmp_path / "history.jsonl"
        for _ in range(2):
            regress.main(["--pair", base, base, "--history", str(history_path)])
        assert len(history_path.read_text().splitlines()) == 2

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        slowed = copy.deepcopy(SHARDS_DOC)
        slowed["results"][0]["speedup_cold_s4"] /= 2.0
        base = self._write(tmp_path, "base.json", SHARDS_DOC)
        cur = self._write(tmp_path, "cur.json", slowed)
        verdict_path = tmp_path / "verdict.json"
        rc = regress.main(
            ["--pair", base, cur, "--verdict", str(verdict_path)]
        )
        assert rc == 1
        assert json.loads(verdict_path.read_text())["ok"] is False
        assert "REGRESSION" in capsys.readouterr().out

    def test_multiple_pairs_all_must_pass(self, tmp_path):
        base = self._write(tmp_path, "s.json", SHARDS_DOC)
        assert regress.main(["--pair", base, base,
                             "--pair", base, base]) == 0
        broken = copy.deepcopy(SHARDS_DOC)
        broken["results"][0]["speedup_cold_s4"] = 0.1
        cur = self._write(tmp_path, "s2.json", broken)
        assert regress.main(["--pair", base, base,
                             "--pair", base, cur]) == 1


@pytest.mark.skipif(
    not (REPO_ROOT / "BENCH_shards.json").exists(),
    reason="committed baselines not present",
)
class TestCommittedBaselines:
    def test_baselines_pass_against_themselves(self):
        shards = str(REPO_ROOT / "BENCH_shards.json")
        serve = str(REPO_ROOT / "BENCH_serve.json")
        assert regress.main([
            "--pair", shards, shards,
            "--pair", serve, serve,
        ]) == 0


class TestSloVerdictRideAlong:
    def _verdict_doc(self, exhausted=False) -> dict:
        return {
            "slos": [{
                "slo": "query_latency_p95_100ms",
                "kind": "latency",
                "objective": 0.95,
                "total": 100, "good": 98, "bad": 2,
                "error_budget": {
                    "total": 5.0, "consumed": 2,
                    "remaining": 3.0, "consumed_fraction": 0.4,
                    "exhausted": exhausted,
                },
                "alerts": [{
                    "name": "fast_burn",
                    "long_window_s": 60.0, "short_window_s": 15.0,
                    "factor": 14.4,
                    "long_burn_rate": 0.4, "short_burn_rate": 0.2,
                    "firing": False,
                }],
                "firing": False,
            }],
            "firing": False,
            "exhausted": exhausted,
            "ok": not exhausted,
        }

    def test_slo_history_fields_shape(self):
        from repro.obs.regress import slo_history_fields

        fields = slo_history_fields(self._verdict_doc())
        row = fields["slos"]["query_latency_p95_100ms"]
        assert row["budget_consumed_fraction"] == 0.4
        assert row["burn_rates"]["fast_burn"]["long"] == 0.4
        assert not fields["exhausted"]

    def test_slo_verdict_lands_in_history(self, tmp_path, capsys):
        from repro.obs.regress import main as regress_main

        verdict_path = tmp_path / "slo_verdict.json"
        verdict_path.write_text(json.dumps(self._verdict_doc()))
        history = tmp_path / "history.jsonl"
        code = regress_main([
            "--slo-verdict", str(verdict_path),
            "--history", str(history),
        ])
        assert code == 0  # burn rates are recorded, never gated here
        record = json.loads(history.read_text().splitlines()[-1])
        assert "query_latency_p95_100ms" in record["slo"]["slos"]
        out = capsys.readouterr().out
        assert "slo query_latency_p95_100ms: ok" in out

    def test_exhausted_budget_recorded_but_not_gated(self, tmp_path):
        from repro.obs.regress import main as regress_main

        verdict_path = tmp_path / "slo_verdict.json"
        verdict_path.write_text(json.dumps(self._verdict_doc(exhausted=True)))
        history = tmp_path / "history.jsonl"
        code = regress_main([
            "--slo-verdict", str(verdict_path),
            "--history", str(history),
        ])
        assert code == 0
        record = json.loads(history.read_text().splitlines()[-1])
        assert record["slo"]["exhausted"] is True

    def test_pairs_still_required_without_slo_verdict(self, capsys):
        from repro.obs.regress import main as regress_main

        with pytest.raises(SystemExit):
            regress_main(["--history", "nope.jsonl"])

    def test_slo_fields_merge_into_pair_verdict(self, tmp_path):
        from repro.obs.regress import main as regress_main

        doc = copy.deepcopy(SHARDS_DOC)
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(doc))
        cur.write_text(json.dumps(doc))
        verdict_path = tmp_path / "slo_verdict.json"
        verdict_path.write_text(json.dumps(self._verdict_doc()))
        out = tmp_path / "verdict_out.json"
        code = regress_main([
            "--pair", str(base), str(cur),
            "--slo-verdict", str(verdict_path),
            "--verdict", str(out),
        ])
        assert code == 0
        merged = json.loads(out.read_text())
        assert merged["ok"]
        assert "query_latency_p95_100ms" in merged["slo"]["slos"]
