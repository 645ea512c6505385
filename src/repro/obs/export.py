"""Metric exporters: Prometheus text, OpenMetrics, JSON, scrape endpoint.

Ways to get the contents of a :class:`~repro.obs.metrics.MetricsRegistry`
out of the process:

* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, one sample line per
  series, histograms as cumulative ``_bucket{le=...}`` series plus
  ``_sum`` / ``_count``;
* :func:`render_openmetrics` — the same walk in OpenMetrics syntax plus
  **exemplars**: ``# {trace_id="..."} value ts`` on the bucket line an
  exemplar landed in (when :func:`repro.obs.metrics.set_exemplars` was
  on) and a closing ``# EOF``, so strict 0.0.4 consumers of
  :func:`render_prometheus` never see either;
* :func:`snapshot` / :func:`write_json` — a JSON document with the same
  information plus the p50/p95/p99 summaries and exemplars;
* :class:`MetricsServer` — a stdlib ``http.server`` endpoint on a daemon
  thread (``port=0`` binds an ephemeral port, see ``server.port``):
  ``/metrics``, ``/openmetrics``, ``/metrics.json``, ``/healthz``,
  ``/flight.json``, ``/traces.json``, ``/flamegraph.txt`` and, given a
  time-series ring, ``/timeseries.json`` and ``/dashboard``.
  :class:`repro.serve.http.ServeServer` subclasses it.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs

from repro.obs import flight as _flight
from repro.obs import metrics as _metrics
from repro.obs import requests as _requests
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

logger = logging.getLogger(__name__)

CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
CONTENT_TYPE_OPENMETRICS = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: The series ``/timeseries.json`` and the dashboard surface.
_DEFAULT_TIMELINE = {
    "counters": (
        "repro_queries_total",
        "repro_executor_failures_total",
        "repro_features_pulled_total",
    ),
    "histograms": ("repro_query_seconds",),
    "gauges": (
        "repro_resource_rss_bytes",
        "repro_resource_threads",
        "repro_resource_executor_queue_depth",
        "repro_resource_node_cache_bytes",
        "repro_resource_shm_bytes",
    ),
}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _label_str(labelnames, labelvalues, extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _exposition_lines(
    registry: MetricsRegistry | None, exemplars: bool
) -> list[str]:
    """Header and sample lines of every family, in registry order.

    With ``exemplars`` a histogram bucket line gains the OpenMetrics
    ``# {trace_id="..."} value ts`` suffix of the exemplar whose
    observation landed in that bucket (attached to its *cumulative*
    line, per the OpenMetrics exposition rules).
    """
    if registry is None:
        registry = _metrics.registry()
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.type_name}")
        for labelvalues, child in family.series():
            labels = _label_str(family.labelnames, labelvalues)
            if isinstance(child, (Counter, Gauge)):
                lines.append(
                    f"{family.name}{labels} {_format_value(child.value)}"
                )
            elif isinstance(child, Histogram):
                suffixes = {
                    idx: f' # {{trace_id="{_escape_label_value(trace_id)}"}}'
                         f" {_format_value(value)} {ts:.3f}"
                    for idx, value, trace_id, ts in child.exemplars()
                } if exemplars else {}
                cumulative = child.cumulative_counts()
                bounds = [*child.buckets, math.inf]
                for i, (bound, count) in enumerate(zip(bounds, cumulative)):
                    le = _label_str(
                        family.labelnames,
                        labelvalues,
                        extra=f'le="{_format_value(bound)}"',
                    )
                    lines.append(
                        f"{family.name}_bucket{le} {count}"
                        + suffixes.get(i, "")
                    )
                lines.append(
                    f"{family.name}_sum{labels} {_format_value(child.sum)}"
                )
                lines.append(f"{family.name}_count{labels} {child.count}")
    return lines


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines = _exposition_lines(registry, exemplars=False)
    return "\n".join(lines) + ("\n" if lines else "")


def render_openmetrics(registry: MetricsRegistry | None = None) -> str:
    """Render a registry in OpenMetrics syntax, exemplars included.

    Sample lines match :func:`render_prometheus`; the differences are
    the exemplar suffixes and the trailing ``# EOF`` marker.
    """
    lines = _exposition_lines(registry, exemplars=True)
    return "\n".join([*lines, "# EOF"]) + "\n"


# ----------------------------------------------------------------------
# JSON snapshots
# ----------------------------------------------------------------------
def snapshot(registry: MetricsRegistry | None = None) -> dict:
    """JSON-able snapshot of every series in the registry."""
    if registry is None:
        registry = _metrics.registry()
    out: dict[str, dict] = {}
    for family in registry.families():
        series = []
        for labelvalues, child in family.series():
            labels = dict(zip(family.labelnames, labelvalues))
            if isinstance(child, (Counter, Gauge)):
                series.append({"labels": labels, "value": child.value})
            elif isinstance(child, Histogram):
                entry = {
                    "labels": labels,
                    "count": child.count,
                    "sum": child.sum,
                    "buckets": list(child.buckets),
                    "bucket_counts": child.bucket_counts(),
                    "p50": child.p50,
                    "p95": child.p95,
                    "p99": child.p99,
                }
                exemplars = child.exemplars()
                if exemplars:
                    entry["exemplars"] = [
                        {
                            "bucket_index": idx,
                            "value": value,
                            "trace_id": trace_id,
                            "ts": ts,
                        }
                        for idx, value, trace_id, ts in exemplars
                    ]
                series.append(entry)
        out[family.name] = {
            "type": family.type_name,
            "help": family.help,
            "series": series,
        }
    return out


def write_json(path, registry: MetricsRegistry | None = None) -> Path:
    """Write :func:`snapshot` to ``path`` as indented JSON."""
    path = Path(path)
    path.write_text(json.dumps(snapshot(registry), indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# time-series payload + dashboard
# ----------------------------------------------------------------------
def timeseries_payload(ring, slos=None) -> dict:
    """The ``/timeseries.json`` document: timeline + windows + verdicts.

    ``ring`` is a :class:`~repro.obs.timeseries.TimeSeriesRing`;
    ``slos`` an optional list of :class:`~repro.obs.slo.SLO` objects
    whose verdicts are embedded under ``"slo"``.  The series shown are
    ``_DEFAULT_TIMELINE``'s, over the newest 300 slots.
    """
    spec = _DEFAULT_TIMELINE
    payload: dict = {
        "samples_taken": ring.samples_taken,
        "slots": len(ring),
        "capacity": ring.capacity,
        "timeline": ring.timeline(
            counter_names=spec["counters"],
            hist_names=spec["histograms"],
            gauge_names=spec["gauges"],
            max_slots=300,
        ),
        "windows": {},
    }
    for window_s in (10.0, 60.0, 300.0):
        win: dict = {"span_s": ring.window_span(window_s)}
        for name in spec["counters"]:
            win.setdefault("rates", {})[name] = ring.rate(name, window_s)
        for name in spec["histograms"]:
            win.setdefault("hist", {})[name] = {
                "count": ring.window_count(name, window_s),
                "p50": ring.window_quantile(name, 0.5, window_s),
                "p95": ring.window_quantile(name, 0.95, window_s),
                "p99": ring.window_quantile(name, 0.99, window_s),
            }
        payload["windows"][str(int(window_s))] = win
    if slos:
        from repro.obs.slo import evaluate_slos

        payload["slo"] = evaluate_slos(list(slos), ring)
    tenants = ring.label_values("repro_serve_tenant_seconds", "tenant")
    if tenants:
        from repro.obs.slo import evaluate_tenant_slos

        verdicts = evaluate_tenant_slos(ring, slos=slos)
        payload["tenants"] = {
            tenant: {
                "rate_60s": ring.rate(
                    "repro_serve_requests_total", 60.0, {"tenant": tenant}
                ),
                "p95_s": ring.window_quantile(
                    "repro_serve_tenant_seconds", 0.95, 60.0,
                    {"tenant": tenant},
                ),
                "p99_s": ring.window_quantile(
                    "repro_serve_tenant_seconds", 0.99, 60.0,
                    {"tenant": tenant},
                ),
                "slo": verdicts.get(tenant),
            }
            for tenant in tenants
        }
    return payload


#: Self-contained operations dashboard: no external assets, polls
#: ``/timeseries.json`` and renders QPS / latency quantiles / resource
#: gauges on <canvas>, plus SLO budget cards.  Served at ``/dashboard``.
DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro — operational telemetry</title>
<style>
  :root { --bg:#0f1117; --panel:#181b24; --fg:#d6d8e0; --dim:#7a7f8e;
          --acc:#4fc3f7; --warn:#ffb74d; --bad:#ef5350; --ok:#66bb6a; }
  body { background:var(--bg); color:var(--fg); margin:0;
         font:13px/1.45 system-ui, sans-serif; }
  header { padding:12px 20px; border-bottom:1px solid #262a36;
           display:flex; align-items:baseline; gap:14px; }
  header h1 { font-size:15px; margin:0; font-weight:600; }
  header .sub { color:var(--dim); font-size:12px; }
  .grid { display:grid; gap:14px; padding:16px 20px;
          grid-template-columns:repeat(auto-fit, minmax(340px, 1fr)); }
  .panel { background:var(--panel); border:1px solid #262a36;
           border-radius:8px; padding:12px 14px; }
  .panel h2 { font-size:12px; margin:0 0 8px; color:var(--dim);
              text-transform:uppercase; letter-spacing:.06em; }
  canvas { width:100%; height:120px; display:block; }
  .big { font-size:22px; font-weight:600; }
  .cards { display:flex; flex-wrap:wrap; gap:10px; }
  .card { flex:1 1 150px; background:#11141c; border-radius:6px;
          padding:8px 10px; border:1px solid #232734; }
  .card .name { color:var(--dim); font-size:11px; }
  .bar { height:6px; background:#232734; border-radius:3px;
         margin-top:6px; overflow:hidden; }
  .bar i { display:block; height:100%; background:var(--ok); }
  .firing { color:var(--bad); font-weight:600; }
  .okay { color:var(--ok); }
  table { width:100%; border-collapse:collapse; font-size:12px; }
  td { padding:2px 6px 2px 0; color:var(--fg); }
  td.k { color:var(--dim); }
</style>
</head>
<body>
<header>
  <h1>repro telemetry</h1>
  <span class="sub" id="meta">connecting&hellip;</span>
</header>
<div class="grid">
  <div class="panel"><h2>Queries / s</h2>
    <div class="big" id="qps">&ndash;</div><canvas id="c_qps"></canvas></div>
  <div class="panel"><h2>Latency p50 / p95 / p99 (ms)</h2>
    <div class="big" id="lat">&ndash;</div><canvas id="c_lat"></canvas></div>
  <div class="panel"><h2>SLO error budgets</h2>
    <div class="cards" id="slo"></div></div>
  <div class="panel"><h2>Resources</h2>
    <table id="res"></table><canvas id="c_rss"></canvas></div>
  <div class="panel"><h2>Tenants (60 s)</h2>
    <table id="tenants"></table></div>
</div>
<script>
"use strict";
const fmt = (v, d=1) => v == null ? "–" : (+v).toFixed(d);
const fmtB = v => v >= 1<<30 ? fmt(v/(1<<30))+" GiB"
                : v >= 1<<20 ? fmt(v/(1<<20))+" MiB"
                : v >= 1024  ? fmt(v/1024)+" KiB" : fmt(v,0)+" B";
function line(canvas, seriesList, colors) {
  const ctx = canvas.getContext("2d");
  const W = canvas.width = canvas.clientWidth * devicePixelRatio;
  const H = canvas.height = canvas.clientHeight * devicePixelRatio;
  ctx.clearRect(0, 0, W, H);
  let max = 0;
  for (const s of seriesList) for (const v of s) if (v > max) max = v;
  if (max <= 0) max = 1;
  seriesList.forEach((s, si) => {
    if (s.length < 2) return;
    ctx.beginPath();
    ctx.strokeStyle = colors[si];
    ctx.lineWidth = 1.5 * devicePixelRatio;
    s.forEach((v, i) => {
      const x = i / (s.length - 1) * (W - 4) + 2;
      const y = H - 3 - (v / max) * (H - 8);
      i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
    });
    ctx.stroke();
  });
  ctx.fillStyle = "#7a7f8e";
  ctx.font = `${10 * devicePixelRatio}px system-ui`;
  ctx.fillText(fmt(max, max < 10 ? 2 : 0), 4, 11 * devicePixelRatio);
}
async function tick() {
  let d;
  try {
    d = await (await fetch("timeseries.json")).json();
  } catch (e) {
    document.getElementById("meta").textContent = "disconnected — " + e;
    return;
  }
  const tl = d.timeline || [];
  document.getElementById("meta").textContent =
    `${d.slots}/${d.capacity} slots · ${d.samples_taken} samples · ` +
    new Date().toLocaleTimeString();
  const qpsSeries = tl.map(s =>
    (s.rates || {})["repro_queries_total"] || 0);
  const w60 = (d.windows || {})["60"] || {};
  document.getElementById("qps").textContent =
    fmt(((w60.rates || {})["repro_queries_total"]), 1) + " qps (60 s)";
  line(document.getElementById("c_qps"), [qpsSeries], ["#4fc3f7"]);
  const h = s => ((s.hist || {})["repro_query_seconds"] || {});
  const p50 = tl.map(s => (h(s).p50 || 0) * 1e3);
  const p95 = tl.map(s => (h(s).p95 || 0) * 1e3);
  const p99 = tl.map(s => (h(s).p99 || 0) * 1e3);
  const wh = ((w60.hist || {})["repro_query_seconds"]) || {};
  document.getElementById("lat").textContent =
    `${fmt(wh.p50 * 1e3)} / ${fmt(wh.p95 * 1e3)} / ${fmt(wh.p99 * 1e3)}`;
  line(document.getElementById("c_lat"), [p50, p95, p99],
       ["#66bb6a", "#ffb74d", "#ef5350"]);
  const sloDiv = document.getElementById("slo");
  sloDiv.innerHTML = "";
  for (const v of ((d.slo || {}).slos || [])) {
    const b = v.error_budget;
    const used = Math.min(1, Math.max(0, b.consumed_fraction));
    const cls = v.firing || b.exhausted ? "firing" : "okay";
    const card = document.createElement("div");
    card.className = "card";
    card.innerHTML =
      `<div class="name">${v.slo}</div>` +
      `<div class="${cls}">${v.firing ? "FIRING" :
         b.exhausted ? "BUDGET EXHAUSTED" : "ok"}</div>` +
      `<div class="bar"><i style="width:${(used * 100).toFixed(1)}%;` +
      `background:${used > 0.9 ? "#ef5350" : used > 0.6 ? "#ffb74d" :
         "#66bb6a"}"></i></div>` +
      `<div class="name">${fmt(b.consumed, 0)}/${fmt(b.total, 1)} ` +
      `budget · ${fmt(v.total, 0)} events</div>`;
    sloDiv.appendChild(card);
  }
  const last = tl.length ? tl[tl.length - 1] : {};
  const g = last.gauges || {};
  const rows = [
    ["RSS", fmtB(g["repro_resource_rss_bytes"] || 0)],
    ["threads", fmt(g["repro_resource_threads"], 0)],
    ["executor queue", fmt(g["repro_resource_executor_queue_depth"], 0)],
    ["node-cache bytes", fmtB(g["repro_resource_node_cache_bytes"] || 0)],
    ["/dev/shm", fmtB(g["repro_resource_shm_bytes"] || 0)],
  ];
  document.getElementById("res").innerHTML = rows.map(
    ([k, v]) => `<tr><td class="k">${k}</td><td>${v}</td></tr>`).join("");
  const rss = tl.map(s =>
    ((s.gauges || {})["repro_resource_rss_bytes"] || 0) / (1 << 20));
  line(document.getElementById("c_rss"), [rss], ["#4fc3f7"]);
  const tenants = d.tenants || {};
  const names = Object.keys(tenants).sort();
  document.getElementById("tenants").innerHTML =
    names.length === 0
      ? `<tr><td class="k">no tenant traffic in window</td></tr>`
      : `<tr><td class="k">tenant</td><td class="k">qps</td>` +
        `<td class="k">p95 ms</td><td class="k">p99 ms</td>` +
        `<td class="k">slo</td></tr>` +
        names.map(n => {
          const t = tenants[n];
          const v = t.slo || {};
          const cls = v.firing ? "firing" : "okay";
          const state = v.firing ? "FIRING"
            : (v.error_budget || {}).exhausted ? "EXHAUSTED" : "ok";
          return `<tr><td>${n}</td><td>${fmt(t.rate_60s, 2)}</td>` +
            `<td>${fmt((t.p95_s || 0) * 1e3)}</td>` +
            `<td>${fmt((t.p99_s || 0) * 1e3)}</td>` +
            `<td class="${cls}">${state}</td></tr>`;
        }).join("");
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
"""


# ----------------------------------------------------------------------
# scrape endpoint
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    registry: MetricsRegistry  # set by MetricsServer
    ring = None                # TimeSeriesRing | None
    slos = None                # list[SLO] | None

    #: Socket read timeout.  A half-open client (connected, never sends
    #: a complete request line) would otherwise pin its handler thread
    #: in ``rfile.readline`` forever; with the timeout the read raises,
    #: ``handle_one_request`` closes the connection, and the thread
    #: exits on its own.
    timeout = 5.0

    #: TCP_NODELAY.  Responses go out as (at least) two small writes —
    #: the header block, then the body — and with Nagle on, the second
    #: write stalls until the client ACKs the first: a flat ~40 ms
    #: added to every keep-alive request on Linux (delayed ACK).
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = render_prometheus(self.registry).encode()
            content_type = CONTENT_TYPE_PROMETHEUS
        elif path == "/openmetrics":
            body = render_openmetrics(self.registry).encode()
            content_type = CONTENT_TYPE_OPENMETRICS
        elif path == "/metrics.json":
            body = (json.dumps(snapshot(self.registry)) + "\n").encode()
            content_type = "application/json"
        elif path == "/timeseries.json" and self.ring is not None:
            payload = timeseries_payload(self.ring, slos=self.slos)
            body = (json.dumps(payload) + "\n").encode()
            content_type = "application/json"
        elif path == "/dashboard" and self.ring is not None:
            body = DASHBOARD_HTML.encode()
            content_type = "text/html; charset=utf-8"
        elif path == "/flight.json":
            payload = {
                "stats": _flight.stats(),
                "records": [r.to_dict() for r in _flight.records()],
            }
            body = (json.dumps(payload) + "\n").encode()
            content_type = "application/json"
        elif path == "/traces.json":
            query = parse_qs(
                self.path.partition("?")[2], keep_blank_values=False
            )
            min_ms = None
            if "min_ms" in query:
                try:
                    min_ms = float(query["min_ms"][-1])
                except ValueError:
                    self.send_error(400, "min_ms must be a number")
                    return
            payload = _requests.payload(
                trace_id=query.get("trace_id", [None])[-1],
                tenant=query.get("tenant", [None])[-1],
                min_ms=min_ms,
            )
            body = (json.dumps(payload) + "\n").encode()
            content_type = "application/json"
        elif path == "/flamegraph.txt":
            from repro.obs import profiler as _profiler

            prof = _profiler.get()
            if prof is None:
                self.send_error(404, "profiler not installed")
                return
            counts = prof.collapsed()
            body = "".join(
                f"{stack} {count}\n"
                for stack, count in sorted(counts.items())
            ).encode()
            content_type = "text/plain; charset=utf-8"
        elif path == "/healthz":
            body = b"ok\n"
            content_type = "text/plain"
        else:
            self.send_error(404, "unknown path")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:
        logger.debug("metrics endpoint: " + fmt, *args)


class MetricsServer:
    """Optional Prometheus scrape endpoint on a daemon thread.

    Usage::

        server = MetricsServer(port=0).start()
        print(f"scrape http://127.0.0.1:{server.port}/metrics")
        ...
        server.close()

    :class:`repro.serve.http.ServeServer` is this lifecycle with a
    query-serving :attr:`handler`.
    """

    #: Request handler class; :meth:`start` binds :meth:`_bindings` to it.
    handler = _Handler

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        ring=None,
        slos=None,
    ) -> None:
        self.registry = registry if registry is not None else _metrics.registry()
        self.host = host
        self.ring = ring
        self.slos = slos
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    def _bindings(self) -> dict:
        """Class attributes the bound handler reads."""
        return {"registry": self.registry, "ring": self.ring, "slos": self.slos}

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        handler = type("Bound" + self.handler.__name__, (self.handler,),
                       self._bindings())
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        logger.info(
            "%s listening on %s:%d", type(self).__name__, self.host, self.port
        )
        return self

    def close(self) -> None:
        """Stop serving and release the port; returns promptly.

        Handler threads are daemonic and never joined, and the listening
        socket is shut *before* the serve-thread join, so a stalled or
        half-open client connection cannot wedge close() — the worst
        case is the serve loop's poll interval, not a client's lifetime.
        Stuck handler threads drain on their own via the handler socket
        ``timeout``.
        """
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5)
            if thread.is_alive():  # pragma: no cover - defensive
                logger.warning(
                    "%s thread still alive after close()", type(self).__name__
                )

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
