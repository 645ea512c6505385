"""Observability layer: phase tracing, metrics registry, and exporters.

The paper argues for its algorithms entirely through cost anatomy — I/O
vs. CPU time, combinations examined, feature objects pulled (Section
8.1).  This package is the runtime counterpart for the grown system:

* :mod:`repro.obs.metrics` — a thread-safe registry of labeled counters,
  gauges and log-bucketed latency histograms (p50/p95/p99);
* :mod:`repro.obs.tracing` — a near-zero-overhead span tracer (disabled
  by default) recording per-query phase timelines and exporting Chrome
  trace-event JSON loadable in Perfetto; also the one carrier of trace
  identity across thread hops (``capture`` / ``resume``);
* :mod:`repro.obs.export` — Prometheus / OpenMetrics text exposition,
  JSON snapshots, and the stdlib ``http.server`` endpoint whose
  lifecycle :class:`repro.serve.http.ServeServer` inherits;
* :mod:`repro.obs.explain` — EXPLAIN/ANALYZE query plans: per-set node
  accesses vs. prunes, combination accept/reject decisions, threshold
  trajectories, per-shard fan-out verdicts
  (``QueryProcessor.explain(...)``);
* :mod:`repro.obs.regress` — the perf-regression sentinel comparing
  bench results against committed baselines;
* :mod:`repro.obs.requests` — W3C ``traceparent`` interop plus the one
  byte-bounded, tail-sampled store of finished work: one entry class
  for a served request (with its admission-waterfall span tree) and for
  an engine query (arguments, latency, phases, counters, error), one
  writer, and two views of it — ``/traces.json`` per entry and
  ``/flight.json`` (``requests.flight_records()``, dumpable to JSONL)
  per query;
* ``python -m repro.obs`` — run a synthetic workload and emit a metrics
  snapshot plus a trace file; subcommands ``explain``, ``regress`` and
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
    metrics,
    requests,
    tracing,
)
from repro.obs.explain import ExplainReport, QueryPlan
from repro.obs.export import (
    MetricsServer,
    render_openmetrics,
    render_prometheus,
    snapshot,
    write_json,
)
from repro.obs.requests import (
    format_traceparent,
    parse_traceparent,
    render_trace_tree,
)
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
    "DEFAULT_LATENCY_BUCKETS",
    "ExplainReport",
    "MetricsRegistry",
    "MetricsServer",
    "PhaseRecorder",
    "QueryPlan",
    "SpanCollector",
    "chrome_trace",
    "current_trace_id",
    "enabled_tracing",
    "explain",
    "export",
    "format_traceparent",
    "log_buckets",
    "metrics",
    "new_trace_id",
    "parse_traceparent",
    "recorder",
    "registry",
    "render_openmetrics",
    "render_prometheus",
    "render_trace_tree",
    "requests",
    "scoped_registry",
    "set_enabled",
    "snapshot",
    "span",
    "trace_scope",
    "tracing",
    "write_chrome_trace",
    "write_json",
]
