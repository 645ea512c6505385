"""Smoke tests: every example script runs to completion.

Run as subprocesses so the examples are exercised exactly as a user
would run them.  The heavyweight scenario scripts are trimmed via env
knobs where available; the quickstart asserts the paper's worked example
internally, so a zero exit code is a real correctness signal.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name: str, timeout: int = 600, args: list[str] = ()) -> str:
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    proc = subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Matches the worked example" in out
        assert "1.6833" in out

    def test_batch_queries(self):
        out = run_example("batch_queries.py")
        assert "node-cache hit rate" in out
        assert "batch results match the serial run exactly" in out

    @pytest.mark.slow
    def test_tourist_trip_planner(self):
        out = run_example("tourist_trip_planner.py")
        assert "All four answer sets agree" in out

    @pytest.mark.slow
    def test_score_variants_tour(self):
        out = run_example("score_variants_tour.py")
        assert "=== range score ===" in out
        assert "=== influence score ===" in out
        assert "=== nearest score ===" in out

    @pytest.mark.slow
    def test_disk_resident_indexes(self):
        out = run_example("disk_resident_indexes.py")
        assert "reopened index answers" in out
        assert "hit rate" in out

    @pytest.mark.slow
    def test_advanced_features(self):
        out = run_example("advanced_features.py")
        assert "streaming: second page" in out

    def test_trace_query(self, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        out = run_example("trace_query.py", args=[str(trace_path)])
        assert "trace and metrics artifacts verified OK" in out
        doc = json.loads(trace_path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert {"query.stps", "query.stds", "rtree.node_expand"} <= names
