"""``python -m repro.obs`` — run a workload, emit metrics + a trace.

Builds a synthetic dataset, runs a repeated-query workload through the
instrumented query stack with tracing enabled, and writes three
artifacts:

* a Chrome trace-event JSON (``--trace-out``, default
  ``obs_trace.json``) — open it in Perfetto / ``chrome://tracing`` to
  see the per-query phase timeline;
* a Prometheus text-exposition snapshot (``--metrics-out``, default
  ``obs_metrics.prom``) with the query latency histograms labeled by
  algorithm / variant;
* a JSON metrics snapshot (``--json-out``, default
  ``obs_metrics.json``) including p50/p95/p99 summaries.

``--smoke`` shrinks everything to a seconds-scale run for CI.

Run::

    PYTHONPATH=src python -m repro.obs --smoke --out-dir obs_out

Subcommands ride alongside the workload runner:

* ``python -m repro.obs explain`` — EXPLAIN/ANALYZE one query against a
  synthetic dataset and print the plan (table or ``--json``);
* ``python -m repro.obs regress`` — the perf-regression sentinel (see
  :mod:`repro.obs.regress`);
* ``python -m repro.obs trace [<id>] (--url URL | --file DUMP)`` — list
  the tail-sampled request traces of a running server's
  ``/traces.json`` or of a JSONL dump, or print one trace's span tree.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import time
from pathlib import Path

from repro.obs import export, metrics, tracing
from repro.obs import requests as requests_mod

logger = logging.getLogger(__name__)

DEFAULT_ALGORITHMS = ("stps", "stds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--smoke", action="store_true", help="seconds-scale run")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for all artifacts (created if missing)")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="Chrome trace-event JSON path "
                             "(default <out-dir>/obs_trace.json)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="Prometheus text snapshot path "
                             "(default <out-dir>/obs_metrics.prom)")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="JSON metrics snapshot path "
                             "(default <out-dir>/obs_metrics.json)")
    parser.add_argument("--objects", type=int, default=8000)
    parser.add_argument("--features", type=int, default=4000,
                        help="features per feature set")
    parser.add_argument("--sets", type=int, default=2, help="feature sets")
    parser.add_argument("--vocab", type=int, default=64)
    parser.add_argument("--queries", type=int, default=12,
                        help="distinct queries in the workload")
    parser.add_argument("--repeats", type=int, default=3,
                        help="workload repetitions (warm-cache traffic)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--radius", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--algorithms", nargs="+",
                        default=list(DEFAULT_ALGORITHMS),
                        choices=["stps", "stds"])
    parser.add_argument("--flight-out", type=Path, default=None,
                        metavar="PATH",
                        help="keep every query in the trace store "
                             "(latency threshold 0) and dump one JSONL "
                             "record per query here")
    return parser


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs explain",
        description="EXPLAIN/ANALYZE one query on a synthetic dataset.",
    )
    parser.add_argument("--algorithm", default="stps",
                        choices=["stps", "stds"])
    parser.add_argument("--variant", default="range",
                        choices=["range", "influence", "nearest"])
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--radius", type=float, default=0.02)
    parser.add_argument("--objects", type=int, default=2000)
    parser.add_argument("--features", type=int, default=1000,
                        help="features per feature set")
    parser.add_argument("--sets", type=int, default=2, help="feature sets")
    parser.add_argument("--vocab", type=int, default=64)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shards", type=int, default=0,
                        help="fan the query out over N shards (0 = unsharded)")
    parser.add_argument("--json", action="store_true",
                        help="print the plan as JSON instead of a table")
    return parser


def run_explain(args) -> int:
    """Build a synthetic dataset, EXPLAIN one query, print the plan."""
    from repro.core.processor import QueryProcessor
    from repro.core.query import Variant
    from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
    from repro.data.workload import WorkloadSpec, make_workload

    objects = synthetic_objects(args.objects, seed=args.seed)
    feature_sets = synthetic_feature_sets(
        args.sets, args.features, args.vocab, seed=args.seed + 1
    )
    spec = WorkloadSpec(
        n_queries=1, k=args.k, radius=args.radius, seed=args.seed + 7,
    )
    query = make_workload(feature_sets, spec)[0]
    variant = Variant(args.variant)
    query = query.with_variant(variant)

    if args.shards > 0:
        from repro.shard import ShardedQueryProcessor

        processor = ShardedQueryProcessor.build(
            objects, feature_sets, shards=args.shards,
            radius=max(args.radius, 0.05),
            replication="halo" if variant is Variant.RANGE else "full",
        )
        with processor:
            report = processor.explain(query, algorithm=args.algorithm)
    else:
        processor = QueryProcessor.build(objects, feature_sets)
        report = processor.explain(query, algorithm=args.algorithm)
    print(report.plan.to_json() if args.json else report.plan.render())
    return 0


def _finite_ms(text: str) -> float:
    """``--min-ms``: a finite number, as ``/traces.json?min_ms=`` takes
    (nan compares false against every duration and turns the filter off)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}"
        )
    return value


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs trace",
        description="Inspect stored request traces: list a server's "
                    "tail-sampled store or a dump, or print one trace's "
                    "span tree.",
    )
    parser.add_argument("trace_id", nargs="?", default=None,
                        help="trace id to print (16- or 32-hex; omit to "
                             "list stored traces)")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--url",
                        help="base URL of a running server exposing "
                             "/traces.json, e.g. http://127.0.0.1:8080")
    source.add_argument("--file", type=Path,
                        help="JSONL dump written by "
                             "repro.obs.requests.dump_jsonl")
    parser.add_argument("--tenant", default=None,
                        help="only traces of this tenant")
    parser.add_argument("--min-ms", type=_finite_ms, default=None,
                        help="only traces at least this slow")
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON instead of rendered output")
    return parser


def _fetch_traces(args) -> list[dict]:
    """Stored traces from --url or --file."""
    if args.url is not None:
        import urllib.parse
        import urllib.request

        params = {}
        if args.trace_id:
            params["trace_id"] = args.trace_id
        if args.tenant:
            params["tenant"] = args.tenant
        if args.min_ms is not None:
            params["min_ms"] = args.min_ms
        url = args.url.rstrip("/") + "/traces.json"
        if params:
            url += "?" + urllib.parse.urlencode(params)
        with urllib.request.urlopen(url, timeout=5) as resp:
            return json.load(resp).get("traces", [])
    traces = [
        json.loads(line)
        for line in args.file.read_text().splitlines()
        if line.strip()
    ]
    wanted = (
        requests_mod.w3c_trace_id(args.trace_id) if args.trace_id else None
    )
    out = []
    for trace in traces:
        if wanted is not None and requests_mod.w3c_trace_id(
            trace.get("trace_id", "")
        ) != wanted:
            continue
        if args.tenant is not None and trace.get("tenant") != args.tenant:
            continue
        if (
            args.min_ms is not None
            and trace.get("duration_s", 0.0) * 1e3 < args.min_ms
        ):
            continue
        out.append(trace)
    return out


def run_trace(args) -> int:
    """``python -m repro.obs trace [<id>]`` — tree view / listing."""
    import sys
    import urllib.error

    try:
        traces = _fetch_traces(args)
    except (urllib.error.URLError, OSError) as exc:
        print(f"trace: cannot fetch traces: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(traces, indent=2))
        return 0 if traces else 1
    if args.trace_id is not None:
        if not traces:
            print(f"trace: no stored trace {args.trace_id!r}",
                  file=sys.stderr)
            return 1
        for trace in traces:
            print(requests_mod.render_trace_tree(trace), end="")
        return 0
    if not traces:
        print("trace: no stored traces")
        return 0
    print(f"  {'trace_id':<32}  {'tenant':<12}  {'outcome':<12}  "
          f"{'status':>6}  {'ms':>9}  kept")
    for trace in traces:
        print(
            f"  {trace.get('trace_id', '?'):<32}  "
            f"{trace.get('tenant', '?'):<12}  "
            f"{trace.get('outcome', '?'):<12}  "
            f"{trace.get('status', 0):>6}  "
            f"{trace.get('duration_s', 0.0) * 1e3:>9.2f}  "
            f"{trace.get('keep_reason', '?')}"
        )
    return 0


def _apply_smoke(args) -> None:
    args.objects = min(args.objects, 2000)
    args.features = min(args.features, 1000)
    args.queries = min(args.queries, 6)
    args.repeats = min(args.repeats, 2)


def _publish_index_gauges(processor, registry: metrics.MetricsRegistry) -> None:
    """Export per-tree I/O + cache counters as labeled gauges."""
    io_reads = registry.gauge(
        "repro_index_io_reads", "Physical page reads per tree.", ("tree",)
    )
    buffer_hits = registry.gauge(
        "repro_index_buffer_hits", "Buffer-pool hits per tree.", ("tree",)
    )
    nc_hits = registry.gauge(
        "repro_index_node_cache_hits",
        "Decoded-node cache hits per tree.",
        ("tree",),
    )
    nc_rate = registry.gauge(
        "repro_index_node_cache_hit_rate",
        "Decoded-node cache hit rate per tree.",
        ("tree",),
    )
    trees = [("objects", processor.object_tree)] + [
        (f"features_{i}", t) for i, t in enumerate(processor.feature_trees)
    ]
    for name, tree in trees:
        io_reads.labels(tree=name).set(tree.stats.reads)
        buffer_hits.labels(tree=name).set(tree.stats.buffer_hits)
        nc_hits.labels(tree=name).set(tree.node_cache.hits)
        nc_rate.labels(tree=name).set(tree.node_cache.hit_rate)


def run_workload(args) -> dict:
    """Build indexes, run the workload, return a summary dict."""
    # Imports are local so ``--help`` never pays the numpy/index cost.
    from repro.core.executor import QueryExecutor
    from repro.core.processor import QueryProcessor
    from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
    from repro.data.workload import WorkloadSpec, make_workload

    logger.info(
        "building synthetic dataset: %d objects, %d x %d features",
        args.objects, args.sets, args.features,
    )
    objects = synthetic_objects(args.objects, seed=args.seed)
    feature_sets = synthetic_feature_sets(
        args.sets, args.features, args.vocab, seed=args.seed + 1
    )
    processor = QueryProcessor.build(objects, feature_sets, index="srt")
    spec = WorkloadSpec(
        n_queries=args.queries, k=args.k, radius=args.radius,
        seed=args.seed + 7,
    )
    queries = make_workload(feature_sets, spec)
    workload = queries * args.repeats

    # Start cold so the trace captures R-tree node expansion (building the
    # indexes leaves every decoded node cached, which would otherwise hide
    # ``rtree.node_expand`` spans behind a 100% node-cache hit rate).
    processor.clear_buffers()
    processor.reset_stats(metrics=False)

    summary: dict = {"algorithms": {}}
    with QueryExecutor(processor) as executor:
        for algorithm in args.algorithms:
            t0 = time.perf_counter()
            report = executor.run(workload, algorithm=algorithm)
            wall = time.perf_counter() - t0
            # Deduplicated batches share one result per distinct query:
            # sum each execution once, not once per repeat.
            phase_totals = report.aggregate_phase_times()
            summary["algorithms"][algorithm] = {
                "queries": report.queries,
                "wall_s": round(wall, 4),
                "throughput_qps": round(report.throughput_qps, 1),
                "latency_p50_s": round(report.latency_p50_s, 6),
                "latency_p95_s": round(report.latency_p95_s, 6),
                "latency_p99_s": round(report.latency_p99_s, 6),
                "queue_wait_p95_s": round(report.queue_wait_p95_s, 6),
                "node_cache_hit_rate": round(report.node_cache_hit_rate, 4),
                "phase_times_s": {
                    k: round(v, 4) for k, v in sorted(phase_totals.items())
                },
            }
    _publish_index_gauges(processor, metrics.registry())
    return summary


def _store_off() -> None:
    requests_mod.configure(
        enabled_=False,
        slow_threshold_s=requests_mod.DEFAULT_SLOW_THRESHOLD_S,
    )


def main(argv=None) -> int:
    import sys

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return run_explain(build_explain_parser().parse_args(argv[1:]))
    if argv and argv[0] == "regress":
        from repro.obs import regress

        return regress.main(argv[1:])
    if argv and argv[0] == "trace":
        return run_trace(build_trace_parser().parse_args(argv[1:]))
    args = build_parser().parse_args(argv)
    if args.smoke:
        _apply_smoke(args)

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_out = args.trace_out or out_dir / "obs_trace.json"
    metrics_out = args.metrics_out or out_dir / "obs_metrics.prom"
    json_out = args.json_out or out_dir / "obs_metrics.json"

    tracing.clear()
    previous = tracing.set_enabled(True)
    keep_queries = args.flight_out is not None
    if keep_queries:
        # --flight-out wants every query kept.
        requests_mod.clear()
        requests_mod.configure(enabled_=True, slow_threshold_s=0.0)
    try:
        summary = run_workload(args)
    finally:
        tracing.set_enabled(previous)
        if keep_queries:
            _store_off()

    metrics_out.write_text(export.render_prometheus())
    export.write_json(json_out)
    print(f"wrote {metrics_out} and {json_out}")
    if args.flight_out is not None:
        records = requests_mod.flight_records()
        requests_mod.dump_jsonl(args.flight_out, docs=records)
        print(f"wrote {args.flight_out} ({len(records)} flight records)")
    tracing.write_chrome_trace(trace_out)
    n_events = len(tracing.events())
    dropped = tracing.dropped_events()
    print(
        f"wrote {trace_out} ({n_events} events"
        + (f", {dropped} dropped" if dropped else "")
        + ") — open in Perfetto / chrome://tracing"
    )
    for algorithm, row in summary["algorithms"].items():
        print(
            f"  {algorithm:>4}: {row['queries']} queries in {row['wall_s']}s "
            f"({row['throughput_qps']} q/s)  "
            f"p50 {row['latency_p50_s'] * 1e3:.2f}ms / "
            f"p95 {row['latency_p95_s'] * 1e3:.2f}ms / "
            f"p99 {row['latency_p99_s'] * 1e3:.2f}ms  "
            f"node-cache {row['node_cache_hit_rate']:.0%}"
        )
        for phase, seconds in row["phase_times_s"].items():
            print(f"        {phase:<32} {seconds:.4f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
