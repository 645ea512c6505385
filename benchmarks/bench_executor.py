"""Repeated-query throughput: hot path vs the serial scalar baselines.

Measures the combined effect of the decoded-node cache, the vectorized
leaf scoring and the :class:`~repro.core.executor.QueryExecutor` on a
repeated-query workload (the same distinct queries arriving again and
again, as in a serving deployment):

* **baseline (cold)** — the per-invocation serial path: one query at a
  time, scalar per-entry scoring (``leafdata.set_vectorized(False)``),
  all caches dropped before *every* query.  This is what serving each
  request from a fresh process costs.
* **baseline (warm)** — the same serial scalar loop inside one session,
  so the page buffer and the decoded-node cache stay warm between
  queries.
* **optimized** — vectorized scoring, warm caches and a
  :class:`QueryExecutor` sharing the same indexes, with batch
  deduplication (default) collapsing repeated queries onto one
  execution.

The headline ``speedup`` compares cold baseline to optimized;
``speedup_warm`` isolates what vectorization + the executor add on top
of a warm session.  Writes ``BENCH_executor.json`` (or ``--out``) and
prints a human-readable summary.  ``--smoke`` runs a seconds-scale
configuration for CI.

Run::

    PYTHONPATH=src python benchmarks/bench_executor.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.data.workload import WorkloadSpec, make_workload
from repro.index import leafdata
from repro.obs import tracing


def build_processor(n_obj: int, n_feat: int, c: int, vocab: int, seed: int):
    objects = synthetic_objects(n_obj, seed=seed)
    feature_sets = synthetic_feature_sets(c, n_feat, vocab, seed=seed + 1)
    processor = QueryProcessor.build(objects, feature_sets, index="srt")
    return processor, feature_sets


def run_baseline_cold(processor, workload, algorithm: str) -> float:
    """Serial scalar loop with every cache dropped before each query.

    Emulates per-invocation serving (fresh process per request): no page
    buffer, no decoded-node cache, no score memo survives between
    queries.  The cache *drops* happen off the clock — only query
    execution is timed.
    """
    previous = leafdata.set_vectorized(False)
    try:
        total = 0.0
        for query in workload:
            processor.clear_buffers()
            t0 = time.perf_counter()
            processor.query(query, algorithm=algorithm)
            total += time.perf_counter() - t0
        return total
    finally:
        leafdata.set_vectorized(previous)


def run_baseline_warm(processor, workload, algorithm: str) -> float:
    """Serial scalar loop in one warm session (caches persist)."""
    previous = leafdata.set_vectorized(False)
    try:
        processor.clear_buffers()
        for query in workload[: min(len(workload), 4)]:
            processor.query(query, algorithm=algorithm)  # warm-up
        t0 = time.perf_counter()
        for query in workload:
            processor.query(query, algorithm=algorithm)
        return time.perf_counter() - t0
    finally:
        leafdata.set_vectorized(previous)


def run_optimized(processor, workload, algorithm: str, workers: int):
    """Warm caches + vectorized scoring + executor with batch dedup."""
    previous = leafdata.set_vectorized(True)
    try:
        with QueryExecutor(processor, max_workers=workers) as executor:
            processor.clear_buffers()
            executor.query_many(workload, algorithm=algorithm)  # warm-up
            return executor.run(workload, algorithm=algorithm)
    finally:
        leafdata.set_vectorized(previous)


def traced_phase_times(processor, workload, algorithm: str) -> dict[str, float]:
    """Per-phase wall seconds of one serial traced pass over the workload.

    Runs off the clock (separately from the timed passes) with the span
    tracer on, so the timed numbers never carry tracing overhead while
    the report still shows where the time goes.
    """
    tracing.clear()
    previous = tracing.set_enabled(True)
    try:
        totals: dict[str, float] = {}
        for query in workload:
            result = processor.query(query, algorithm=algorithm)
            for phase, seconds in result.stats.phase_times.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return {phase: round(s, 4) for phase, s in sorted(totals.items())}
    finally:
        tracing.set_enabled(previous)
        tracing.clear()


def bench(args) -> dict:
    processor, feature_sets = build_processor(
        args.objects, args.features, args.sets, args.vocab, args.seed
    )
    spec = WorkloadSpec(
        n_queries=args.queries,
        k=args.k,
        radius=args.radius,
        seed=args.seed + 7,
    )
    queries = make_workload(feature_sets, spec)
    workload = queries * args.repeats

    results = []
    for algorithm in args.algorithms:
        cold_s = run_baseline_cold(processor, workload, algorithm)
        warm_s = run_baseline_warm(processor, workload, algorithm)
        report = run_optimized(processor, workload, algorithm, args.workers)
        phase_times = traced_phase_times(
            processor, queries, algorithm
        )  # distinct queries only; off the clock
        speedup = cold_s / report.wall_s if report.wall_s > 0 else 0.0
        speedup_warm = warm_s / report.wall_s if report.wall_s > 0 else 0.0
        latency = report.latency_percentiles()
        queue_wait = report.queue_wait_percentiles()
        results.append(
            {
                "algorithm": algorithm,
                "queries": len(workload),
                "baseline_cold_s": round(cold_s, 4),
                "baseline_warm_s": round(warm_s, 4),
                "optimized_s": round(report.wall_s, 4),
                "speedup": round(speedup, 2),
                "speedup_warm": round(speedup_warm, 2),
                "throughput_qps": round(report.throughput_qps, 1),
                "node_cache_hit_rate": round(report.node_cache_hit_rate, 4),
                # Schema-additive observability fields (see repro.obs):
                "latency_p50_s": round(latency["p50"], 6),
                "latency_p95_s": round(latency["p95"], 6),
                "latency_p99_s": round(latency["p99"], 6),
                "queue_wait_p50_s": round(queue_wait["p50"], 6),
                "queue_wait_p95_s": round(queue_wait["p95"], 6),
                "queue_wait_p99_s": round(queue_wait["p99"], 6),
                "phase_times_s": phase_times,
            }
        )

    return {
        "benchmark": "executor-hot-path",
        "config": {
            "objects": args.objects,
            "features_per_set": args.features,
            "feature_sets": args.sets,
            "vocabulary": args.vocab,
            "distinct_queries": args.queries,
            "repeats": args.repeats,
            "workers": args.workers,
            "cpus": os.cpu_count(),
            "numpy_fast_path": leafdata.vectorized_enabled(),
            "python": platform.python_version(),
        },
        "results": results,
        "speedup_min": min(r["speedup"] for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="seconds-scale run")
    parser.add_argument("--out", type=Path, default=Path("BENCH_executor.json"))
    parser.add_argument("--objects", type=int, default=20_000)
    parser.add_argument("--features", type=int, default=10_000)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--vocab", type=int, default=64)
    parser.add_argument("--queries", type=int, default=25, help="distinct queries")
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--radius", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--algorithms", nargs="+", default=["stps", "stds"],
        choices=["stps", "stds"],
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.objects = min(args.objects, 4000)
        args.features = min(args.features, 2000)
        args.queries = min(args.queries, 10)
        args.repeats = min(args.repeats, 5)

    payload = bench(args)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"wrote {args.out}")
    for row in payload["results"]:
        print(
            f"  {row['algorithm']:>4}: {row['queries']} queries  "
            f"cold {row['baseline_cold_s']:.2f}s / "
            f"warm {row['baseline_warm_s']:.2f}s -> "
            f"optimized {row['optimized_s']:.2f}s  "
            f"({row['speedup']:.1f}x cold, {row['speedup_warm']:.1f}x warm, "
            f"{row['throughput_qps']:.0f} q/s, "
            f"node-cache hit rate {row['node_cache_hit_rate']:.0%})"
        )
        print(
            f"        latency p50 {row['latency_p50_s'] * 1e3:.2f}ms / "
            f"p95 {row['latency_p95_s'] * 1e3:.2f}ms / "
            f"p99 {row['latency_p99_s'] * 1e3:.2f}ms  "
            f"queue wait p95 {row['queue_wait_p95_s'] * 1e3:.2f}ms"
        )
        for phase, seconds in row["phase_times_s"].items():
            print(f"        {phase:<32} {seconds:.3f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
