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
  ``/flight.json`` and ``/traces.json``.
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

from repro.obs import metrics as _metrics
from repro.obs import requests as _requests
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

logger = logging.getLogger(__name__)

CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
CONTENT_TYPE_OPENMETRICS = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


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
# scrape endpoint
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    registry: MetricsRegistry  # set by MetricsServer

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
        elif path == "/flight.json":
            body = (json.dumps(_requests.flight_payload()) + "\n").encode()
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
                    min_ms = math.nan
                # nan would compare false against every duration and
                # turn the filter off.
                if not math.isfinite(min_ms):
                    self.send_error(400, "min_ms must be a finite number")
                    return
            payload = _requests.payload(
                trace_id=query.get("trace_id", [None])[-1],
                tenant=query.get("tenant", [None])[-1],
                min_ms=min_ms,
            )
            body = (json.dumps(payload) + "\n").encode()
            content_type = "application/json"
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
    ) -> None:
        self.registry = registry if registry is not None else _metrics.registry()
        self.host = host
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
        return {"registry": self.registry}

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
