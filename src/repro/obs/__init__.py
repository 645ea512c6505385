"""Observability layer: phase tracing, metrics registry, and exporters.

The paper argues for its algorithms entirely through cost anatomy — I/O
vs. CPU time, combinations examined, feature objects pulled (Section
8.1).  This package is the runtime counterpart for the grown system:

* :mod:`repro.obs.metrics` — a thread-safe registry of labeled counters,
  gauges and log-bucketed latency histograms (p50/p95/p99);
* :mod:`repro.obs.tracing` — a near-zero-overhead span tracer (disabled
  by default) recording per-query phase timelines and exporting Chrome
  trace-event JSON loadable in Perfetto; also the one carrier of trace
  identity across thread and process hops (``capture`` / ``resume``);
* :mod:`repro.obs.export` — Prometheus / OpenMetrics text exposition,
  JSON snapshots, and the stdlib ``http.server`` endpoint whose
  lifecycle :class:`repro.serve.http.ServeServer` inherits;
* :mod:`repro.obs.explain` — EXPLAIN/ANALYZE query plans: per-set node
  accesses vs. prunes, combination accept/reject decisions, threshold
  trajectories, per-shard fan-out verdicts
  (``QueryProcessor.explain(...)``);
* :mod:`repro.obs.flight` — the flight recorder: per-query records
  (arguments, phases, counters, plan summary) kept in the trace store
  below and read back as a view over it, dumpable to JSONL;
* :mod:`repro.obs.regress` — the perf-regression sentinel comparing
  bench results against committed baselines (and recording SLO burn
  rates into the bench history);
* :mod:`repro.obs.timeseries` — a delta-encoded ring of periodic
  registry snapshots: windowed rates and p50/p95/p99 over the last
  N seconds, fed by a background :class:`~repro.obs.timeseries.Sampler`;
* :mod:`repro.obs.slo` — declarative latency/availability SLOs with
  error-budget accounting and multi-window burn-rate alerts evaluated
  against the ring (committed definitions live in ``SLO.json``);
* :mod:`repro.obs.resources` — process-resource gauges (RSS, fds,
  ``/dev/shm`` segments, cache/buffer occupancy, executor queue depth);
  ``Sampler(ring, pre_sample=(resources.collect,))`` puts them in the
  same ring;
* :mod:`repro.obs.profiler` — a continuous ``sys._current_frames``
  sampling profiler whose ring is retroactively captured (keyed by
  trace id) whenever the trace store admits a slow request; emits
  flamegraph.pl collapsed-stack output;
* :mod:`repro.obs.requests` — W3C ``traceparent`` interop plus the one
  byte-bounded, tail-sampled store of finished requests with their
  admission-waterfall span trees (``/traces.json`` on the serving
  endpoint);
* ``python -m repro.obs`` — run a synthetic workload and emit a metrics
  snapshot plus a trace file (``--telemetry`` adds the full
  operational layer); subcommands ``explain``, ``regress`` and
  ``trace`` (see :mod:`repro.obs.cli`).

Quick start::

    from repro.obs import tracing, export

    tracing.set_enabled(True)
    result = processor.query(query)          # result.stats.phase_times
    tracing.write_chrome_trace("trace.json")  # open in Perfetto
    print(export.render_prometheus())         # scrape-format metrics

See DESIGN.md §9 for the span taxonomy and how phase names map to the
paper's Algorithms 1-4.
"""

from __future__ import annotations

import logging

from repro.obs import (
    explain,
    export,
    flight,
    metrics,
    profiler,
    requests,
    resources,
    slo,
    timeseries,
    tracing,
)
from repro.obs.explain import ExplainReport, QueryPlan
from repro.obs.export import (
    MetricsServer,
    render_openmetrics,
    render_prometheus,
    snapshot,
    timeseries_payload,
    write_json,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.requests import (
    format_traceparent,
    parse_traceparent,
    render_trace_tree,
)
from repro.obs.slo import (
    AvailabilitySLO,
    BurnRateAlert,
    LatencySLO,
    default_slos,
    evaluate_slos,
    load_slos,
)
from repro.obs.timeseries import Sampler, TimeSeriesRing
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    log_buckets,
    registry,
    scoped_registry,
)
from repro.obs.tracing import (
    PhaseRecorder,
    SpanCollector,
    chrome_trace,
    current_trace_id,
    enabled_tracing,
    new_trace_id,
    recorder,
    set_enabled,
    span,
    trace_scope,
    write_chrome_trace,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AvailabilitySLO",
    "BurnRateAlert",
    "DEFAULT_LATENCY_BUCKETS",
    "ExplainReport",
    "LatencySLO",
    "MetricsRegistry",
    "MetricsServer",
    "PhaseRecorder",
    "QueryPlan",
    "Sampler",
    "SamplingProfiler",
    "SpanCollector",
    "TimeSeriesRing",
    "chrome_trace",
    "default_slos",
    "evaluate_slos",
    "load_slos",
    "current_trace_id",
    "enabled_tracing",
    "explain",
    "export",
    "flight",
    "format_traceparent",
    "log_buckets",
    "metrics",
    "new_trace_id",
    "parse_traceparent",
    "profiler",
    "recorder",
    "registry",
    "render_openmetrics",
    "render_prometheus",
    "render_trace_tree",
    "requests",
    "resources",
    "scoped_registry",
    "set_enabled",
    "slo",
    "snapshot",
    "span",
    "timeseries",
    "timeseries_payload",
    "trace_scope",
    "tracing",
    "write_chrome_trace",
    "write_json",
]
