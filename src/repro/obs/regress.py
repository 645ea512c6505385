"""Perf-regression sentinel: compare bench results against baselines.

The repo commits benchmark result documents (``BENCH_shards.json``,
``BENCH_serve.json``) produced by the scripts in ``benchmarks/``.  This
module compares a *current* run against a *baseline* document and emits
a machine-readable verdict that CI gates on, plus an append-only history
line (``BENCH_history.jsonl``) so perf over time is greppable.

Two comparison modes, chosen automatically per pair:

* **matched** — the two documents ran the same workload shape
  (machine-independent config keys agree).  Ratio rules apply: every
  tracked *relative* metric (speedups, throughput) of the current run
  must stay within :data:`RATIO_TOLERANCE` of the baseline.  Speedups
  are self-normalizing (baseline and optimized paths are timed on the
  same machine in the same process), so the ratio survives machine
  changes that absolute latencies would not.
* **floor** — workload shapes differ (e.g. a CI smoke run vs. the
  committed full-size baseline).  Absolute floors apply instead: the
  shard fan-out must stay within its overhead cap
  (:data:`SHARD_FANOUT_FLOOR` on the headline algorithm at 4 shards)
  and the serving bench above its ``SERVE_*`` floors.

Shard-scaling documents are also held, in either mode, to a count that
repeats exactly on every machine: the combinations STPS assembles and
then rejects under Lemma 1 may not exceed ``c`` times the combinations
it releases (the join on pull leaves only pairs among one anchor's
neighbours to reject; an enumerate-then-filter assembly rejects
thousands per release).

Noise tolerance is deliberately generous (a 45% speedup drop passes a
ratio check) — the sentinel exists to catch structural regressions
(a 2x slowdown from an accidental cache bypass), not 10% jitter on a
shared CI box.

Use::

    python -m repro.obs regress \
        --pair BENCH_shards.json current_shards.json \
        --pair BENCH_serve.json current_serve.json \
        --history BENCH_history.jsonl --verdict sentinel_verdict.json

Exit status 0 iff every pair passes; the verdict JSON carries the full
per-check breakdown either way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

#: Schema version of both the verdict document and history records.
SENTINEL_SCHEMA_VERSION = 1

#: Matched mode: current relative metric must be >= baseline * this.
RATIO_TOLERANCE = 0.55
#: Floor mode: fan-out overhead cap — the headline algorithm's cold pass
#: at 4 shards may take at most 1/0.4 = 2.5x the single-node time.  Not
#: a speedup floor: STPS work is linear in the features it pulls, so on
#: one core splitting the space buys nothing and costs the dispatch.
SHARD_FANOUT_FLOOR = 0.4
#: Floor mode, serving bench: minimum sustained QPS under zipf load.
SERVE_QPS_FLOOR = 100.0
#: Floor mode, serving bench: minimum result-cache hit rate under the
#: zipf-skewed key distribution (s=1.1).
SERVE_CACHE_HIT_FLOOR = 0.5
#: Floor mode, serving bench: headroom/isolation ratios must be >= 1
#: (p99 under the SLO target; victim p99 within 1.2x its solo run).
SERVE_RATIO_FLOOR = 1.0

#: Config keys that describe the machine, not the workload — two runs
#: differing only in these still compare in matched mode.
MACHINE_CONFIG_KEYS = frozenset({"python", "cpus", "workers"})


def load_doc(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def workload_config(doc: dict) -> dict:
    """The machine-independent part of a bench document's config."""
    return {
        key: value
        for key, value in doc.get("config", {}).items()
        if key not in MACHINE_CONFIG_KEYS
    }


def extract_metrics(doc: dict) -> dict[str, dict[str, float]]:
    """``{unit: {metric: value}}`` of the tracked relative metrics.

    Units are ``shards/<algorithm>`` or ``serve/<phase>``; only
    machine-portable metrics (speedup ratios, throughput) are tracked —
    absolute wall times are recorded in history but never gated on.
    """
    bench = doc.get("benchmark", "")
    out: dict[str, dict[str, float]] = {}
    if bench == "shard-scaling":
        for row in doc.get("results", []):
            unit = f"shards/{row['algorithm']}"
            metrics = {}
            value = row.get("speedup_cold_s4")
            if value is None:
                for srow in row.get("shards", []):
                    if srow.get("shards") == 4:
                        value = srow.get("speedup_cold")
            if value is not None:
                metrics["speedup_cold_s4"] = float(value)
            out[unit] = metrics
    elif bench == "serve-load":
        load = doc.get("load", {})
        metrics = {}
        for key in ("sustained_qps", "cache_hit_rate", "p99_slo_headroom"):
            if key in load:
                metrics[key] = float(load[key])
        out["serve/load"] = metrics
        quota = doc.get("quota", {})
        if "victim_isolation" in quota:
            out["serve/quota"] = {
                "victim_isolation": float(quota["victim_isolation"])
            }
    return out


def _check(unit, metric, rule, threshold, baseline, current) -> dict:
    return {
        "unit": unit,
        "metric": metric,
        "rule": rule,
        "threshold": round(threshold, 4),
        "baseline": baseline,
        "current": current,
        "ok": current >= threshold,
    }


def _wasted_work_checks(doc: dict) -> list[dict]:
    """``rejected_2r <= c * released`` per row that recorded the counts."""
    c = int(doc.get("config", {}).get("feature_sets") or 0)
    checks = []
    for row in doc.get("results", []):
        counts = row.get("combinations")
        if not counts:
            continue
        ceiling = c * counts["released"]
        checks.append({
            "unit": f"shards/{row['algorithm']}",
            "metric": "combinations_rejected_2r",
            "rule": "ceiling",
            "threshold": ceiling,
            "baseline": None,
            "current": counts["rejected_2r"],
            "ok": counts["rejected_2r"] <= ceiling,
        })
    return checks


def compare_docs(baseline: dict, current: dict) -> dict:
    """One pair's verdict: mode, per-check outcomes, overall ok."""
    bench = current.get("benchmark", "")
    if baseline.get("benchmark", "") != bench:
        return {
            "benchmark": bench,
            "mode": "invalid",
            "ok": False,
            "error": (
                f"benchmark type mismatch: baseline is "
                f"{baseline.get('benchmark')!r}, current is {bench!r}"
            ),
            "checks": [],
        }
    matched = workload_config(baseline) == workload_config(current)
    base_metrics = extract_metrics(baseline)
    cur_metrics = extract_metrics(current)
    checks: list[dict] = []

    if matched:
        mode = "matched"
        for unit, metrics in base_metrics.items():
            for metric, base_value in metrics.items():
                cur_value = cur_metrics.get(unit, {}).get(metric)
                if cur_value is None:
                    checks.append({
                        "unit": unit,
                        "metric": metric,
                        "rule": "present",
                        "baseline": base_value,
                        "current": None,
                        "ok": False,
                    })
                    continue
                checks.append(_check(
                    unit, metric, "ratio",
                    base_value * RATIO_TOLERANCE, base_value, cur_value,
                ))
    else:
        mode = "floor"
        if bench == "shard-scaling":
            headline = current.get("headline_algorithm", "stps")
            unit = f"shards/{headline}"
            value = cur_metrics.get(unit, {}).get("speedup_cold_s4")
            if value is not None:
                checks.append(_check(
                    unit, "speedup_cold_s4", "floor",
                    SHARD_FANOUT_FLOOR,
                    base_metrics.get(unit, {}).get("speedup_cold_s4"),
                    value,
                ))
        elif bench == "serve-load":
            floors = {
                ("serve/load", "sustained_qps"): SERVE_QPS_FLOOR,
                ("serve/load", "cache_hit_rate"): SERVE_CACHE_HIT_FLOOR,
                ("serve/load", "p99_slo_headroom"): SERVE_RATIO_FLOOR,
                ("serve/quota", "victim_isolation"): SERVE_RATIO_FLOOR,
            }
            for (unit, metric), floor in floors.items():
                value = cur_metrics.get(unit, {}).get(metric)
                if value is not None:
                    checks.append(_check(
                        unit, metric, "floor", floor,
                        base_metrics.get(unit, {}).get(metric), value,
                    ))
    if bench == "shard-scaling":
        checks.extend(_wasted_work_checks(current))
    if not checks:
        return {
            "benchmark": bench,
            "mode": mode,
            "ok": False,
            "error": "no comparable metrics found",
            "checks": [],
        }
    return {
        "benchmark": bench,
        "mode": mode,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def history_record(
    pairs: list[dict], timestamp: str | None = None
) -> dict:
    """One append-only JSONL line summarizing a sentinel run."""
    return {
        "schema_version": SENTINEL_SCHEMA_VERSION,
        "timestamp": timestamp or time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
        "git_sha": git_sha(),
        "ok": all(p["ok"] for p in pairs),
        "pairs": [
            {
                "benchmark": p["benchmark"],
                "mode": p["mode"],
                "ok": p["ok"],
                "metrics": {
                    f"{c['unit']}:{c['metric']}": c["current"]
                    for c in p["checks"]
                },
            }
            for p in pairs
        ],
    }


def append_history(path: str | Path, record: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs regress",
        description="Compare bench results against committed baselines.",
    )
    parser.add_argument(
        "--pair", nargs=2, action="append", default=None,
        metavar=("BASELINE", "CURRENT"),
        help="baseline and current bench JSON documents (repeatable)",
    )
    parser.add_argument(
        "--history", default=None, metavar="PATH",
        help="append a summary record to this JSONL file",
    )
    parser.add_argument(
        "--verdict", default=None, metavar="PATH",
        help="write the full verdict JSON here (stdout summary always)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.pair:
        parser.error("need at least one --pair")
    pairs: list[dict] = []
    for baseline_path, current_path in args.pair:
        try:
            baseline = load_doc(baseline_path)
            current = load_doc(current_path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"sentinel: cannot read bench document: {exc}")
            return 1
        verdict = compare_docs(baseline, current)
        verdict["baseline_path"] = str(baseline_path)
        verdict["current_path"] = str(current_path)
        pairs.append(verdict)

    ok = all(p["ok"] for p in pairs)
    doc = {
        "schema_version": SENTINEL_SCHEMA_VERSION,
        "ok": ok,
        "pairs": pairs,
    }
    if args.verdict:
        with open(args.verdict, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    if args.history:
        append_history(args.history, history_record(pairs))

    for pair in pairs:
        status = "OK  " if pair["ok"] else "FAIL"
        print(
            f"[{status}] {pair['benchmark']} ({pair['mode']}) "
            f"{pair['baseline_path']} vs {pair['current_path']}"
        )
        for check in pair["checks"]:
            mark = "ok" if check["ok"] else "REGRESSION"
            base = check.get("baseline")
            base_s = f"{base:.2f}" if isinstance(base, (int, float)) else "-"
            cur = check.get("current")
            cur_s = f"{cur:.2f}" if isinstance(cur, (int, float)) else "-"
            threshold = check.get("threshold")
            op = "<=" if check["rule"] == "ceiling" else ">="
            thr_s = (
                f" ({op} {threshold:.2f})" if threshold is not None else ""
            )
            print(
                f"    {mark:>10}  {check['unit']}:{check['metric']}  "
                f"baseline={base_s} current={cur_s}{thr_s}"
            )
        if pair.get("error"):
            print(f"    error: {pair['error']}")
    print(f"sentinel: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
