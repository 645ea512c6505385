"""Smoke test of the layer ledger (outside tier-1's ``testpaths``).

Run explicitly; it takes about a minute::

    PYTHONPATH=src python -m pytest benchmarks/layers/test_layers_smoke.py
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
#: The layers every request of the workload must have a span at.
CHAINS = {
    "direct_c3": {"client", "core.processor"},
    "serve_miss": {
        "client", "serve.service", "core.executor", "core.processor",
    },
}


def test_quick_run_emits_every_declared_metric():
    command = [sys.executable, str(HERE / "run.py"), "--quick"]
    for name in CHAINS:
        command += ["--workload", name]
    proc = subprocess.run(command, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = json.loads((HERE / "out" / "results.json").read_text())
    assert set(results["workloads"]) == set(CHAINS)

    for name, passes in results["workloads"].items():
        for key, declared in (
            ("trace0", SPEC["end_to_end"]), ("trace1", SPEC["per_layer"])
        ):
            result = passes[key]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in declared}
            for metric in declared:
                entry = result["metrics"][metric["name"]]
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
                assert entry["unit"] == metric["unit"]
                assert math.isfinite(entry["value"]), metric["name"]
        for metric in passes["trace0"]["metrics"].values():
            assert metric["value"] > 0
        layers = passes["trace1"]["metrics"]
        assert layers["ledger.residual_share"]["value"] < 0.05
        assert layers["core.processor.self_ms"]["value"] > 0

        trace = json.loads((HERE / "out" / f"trace-{name}.json").read_text())
        seen = defaultdict(set)
        for event in trace["traceEvents"]:
            if event["ph"] == "X" and event["args"]["request_id"]:
                layer = event["name"]
                if layer.startswith("storage."):
                    layer = "storage.pagefile"
                seen[event["args"]["request_id"]].add(layer)
        assert seen, "no request spans recorded"
        for request_id, layers_seen in seen.items():
            assert CHAINS[name] <= layers_seen, (name, request_id, layers_seen)

    assert results["workloads"]["serve_miss"]["trace1"]["metrics"][
        "serve.http.self_ms"]["value"] > 0
