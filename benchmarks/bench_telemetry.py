"""Telemetry overhead A/B: what the observability layer costs.

Times the same warm serial query workload under three telemetry
configurations and reports the overhead of each against the first:

* **off** — everything disabled: no exemplars, no flight recorder, no
  resource sampler, no profiler.  This is the default production hot
  path and the baseline the other modes are measured against.  (That
  the *disabled* path itself stayed flat across PRs is guarded
  separately: the layer ledger's ``direct_*`` workloads run with
  tracing off, where any hot-path tax would show up in ``op_p50_ms``.)
* **light** — exemplars + the background resource sampler, the
  recommended always-on serving configuration.  Budget: <= 5%.
* **full** — light plus a record-everything flight recorder and the
  continuous sampling profiler, the debugging configuration.  No hard
  budget; reported for scale.

Modes are interleaved across trials (off/light/full, off/light/full,
...) so clock drift and thermal effects hit all three equally, and the
per-mode *minimum* across trials is used — the minimum is the least
noisy estimator for a fixed workload.  Writes ``BENCH_telemetry.json``
(or ``--out``).  ``--check`` exits non-zero when the light mode blows
its budget.

Run::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.core.processor import QueryProcessor
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.data.workload import WorkloadSpec, make_workload
from repro.obs import metrics, profiler, requests, resources
from repro.obs.timeseries import Sampler, TimeSeriesRing

LIGHT_BUDGET_PCT = 5.0


def build(args):
    objects = synthetic_objects(args.objects, seed=args.seed)
    feature_sets = synthetic_feature_sets(
        args.sets, args.features, args.vocab, seed=args.seed + 1
    )
    processor = QueryProcessor.build(objects, feature_sets, index="srt")
    spec = WorkloadSpec(
        n_queries=args.queries, k=args.k, radius=args.radius,
        seed=args.seed + 7,
    )
    workload = make_workload(feature_sets, spec) * args.repeats
    return processor, workload


def run_workload(processor, workload, algorithm: str) -> float:
    t0 = time.perf_counter()
    for query in workload:
        processor.query(query, algorithm=algorithm)
    return time.perf_counter() - t0


class _Mode:
    """Telemetry configuration applied around one timed pass."""

    def __init__(self, name: str, sample_interval_s: float):
        self.name = name
        self.sample_interval_s = sample_interval_s
        self._sampler = None

    def __enter__(self):
        if self.name == "off":
            return self
        metrics.set_exemplars(True)
        ring = TimeSeriesRing(capacity=600)
        self._sampler = Sampler(
            ring, interval_s=self.sample_interval_s,
            pre_sample=(resources.collect,),
        )
        self._sampler.start()
        if self.name == "full":
            requests.configure(enabled_=True, slow_threshold_s=0.0)
            profiler.install(interval_s=0.01)
        return self

    def __exit__(self, *exc):
        if self.name == "off":
            return False
        if self.name == "full":
            profiler.uninstall()
            requests.configure(
                enabled_=False,
                slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S,
            )
            requests.clear()
        self._sampler.stop()
        metrics.set_exemplars(False)
        return False


def bench(args) -> dict:
    processor, workload = build(args)
    modes = ["off", "light", "full"]
    timings: dict[str, list[float]] = {m: [] for m in modes}

    # Warm the caches off the clock so the first timed mode isn't
    # penalized for page faults the others never see.
    run_workload(processor, workload, args.algorithm)

    for _ in range(args.trials):
        for name in modes:
            with _Mode(name, args.sample_interval):
                timings[name].append(
                    run_workload(processor, workload, args.algorithm)
                )

    off_s = min(timings["off"])
    results = []
    for name in modes:
        best = min(timings[name])
        overhead_pct = (best / off_s - 1.0) * 100.0 if off_s > 0 else 0.0
        results.append(
            {
                "mode": name,
                "wall_s": round(best, 4),
                "wall_s_all_trials": [round(t, 4) for t in timings[name]],
                "throughput_qps": round(len(workload) / best, 1),
                "overhead_pct": round(overhead_pct, 2),
            }
        )

    light = next(r for r in results if r["mode"] == "light")
    return {
        "benchmark": "telemetry-overhead",
        "config": {
            "objects": args.objects,
            "features_per_set": args.features,
            "feature_sets": args.sets,
            "vocabulary": args.vocab,
            "queries": len(workload),
            "trials": args.trials,
            "algorithm": args.algorithm,
            "sample_interval_s": args.sample_interval,
            "python": platform.python_version(),
        },
        "results": results,
        "light_overhead_pct": light["overhead_pct"],
        "light_budget_pct": LIGHT_BUDGET_PCT,
        "light_within_budget": light["overhead_pct"] <= LIGHT_BUDGET_PCT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="seconds-scale run")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when light mode exceeds its budget")
    parser.add_argument("--out", type=Path, default=Path("BENCH_telemetry.json"))
    parser.add_argument("--objects", type=int, default=8000)
    parser.add_argument("--features", type=int, default=4000)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--vocab", type=int, default=64)
    parser.add_argument("--queries", type=int, default=10, help="distinct queries")
    parser.add_argument("--repeats", type=int, default=6)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--radius", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--sample-interval", type=float, default=0.25)
    parser.add_argument("--algorithm", default="stps", choices=["stps", "stds"])
    args = parser.parse_args(argv)
    if args.smoke:
        args.objects = min(args.objects, 3000)
        args.features = min(args.features, 1500)
        args.queries = min(args.queries, 6)
        args.repeats = min(args.repeats, 4)
        args.trials = min(args.trials, 3)

    payload = bench(args)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"wrote {args.out}")
    for row in payload["results"]:
        print(
            f"  {row['mode']:>5}: {row['wall_s']:.3f}s  "
            f"{row['throughput_qps']:.0f} q/s  "
            f"overhead {row['overhead_pct']:+.2f}%"
        )
    verdict = "within" if payload["light_within_budget"] else "OVER"
    print(
        f"  light mode {verdict} budget "
        f"({payload['light_overhead_pct']:+.2f}% vs "
        f"{payload['light_budget_pct']:.1f}% allowed)"
    )
    if args.check and not payload["light_within_budget"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
