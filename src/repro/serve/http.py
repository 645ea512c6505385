"""Stdlib HTTP front end for :class:`~repro.serve.service.QueryService`.

One :class:`ServeServer` mounts everything a deployment needs on a
single port, no third-party dependency:

* ``POST /query`` (JSON body) and ``GET /query`` (query string) — the
  serving path: admission control + execution via the shared
  :class:`QueryService`.  429 responses carry ``Retry-After``.
* ``GET /stats/serve`` — live admission/cache/quota state.
* Everything :class:`repro.obs.export.MetricsServer` serves (``/metrics``,
  ``/openmetrics``, ``/metrics.json``, ``/healthz``, ``/flight.json``,
  ``/traces.json``): :class:`ServeServer` is a
  ``MetricsServer`` and its handler a subclass of the metrics handler,
  so both share one listener and one lifecycle.

The listener and connection loop are the stdlib's ``http.server``
(HTTP/1.1 keep-alive); the request line and headers are read by the
shared handler's own parser, and every answer is one write of status
line, headers and body (see :mod:`repro.obs.export`).

Request shape (POST body or GET query string)::

    {"tenant": "acme", "algorithm": "stps", "k": 5, "radius": 0.1,
     "lam": 0.5, "masks": [3, 1], "variant": "range"}

``masks`` holds one keyword bit mask per feature set (the canonical
:class:`~repro.core.query.PreferenceQuery` form; resolve keyword strings
with :meth:`PreferenceQuery.from_terms` client-side, or serve-side via
your own wrapper).  In a query string, ``masks`` is comma-separated:
``/query?tenant=acme&k=5&radius=0.1&lam=0.5&masks=3,1``.  The tenant may
also arrive as an ``X-Tenant`` header (body/param wins).
"""

from __future__ import annotations

import json
import logging
from urllib.parse import parse_qs, urlsplit

from repro.core.query import PreferenceQuery, Variant
from repro.errors import QueryError, ReproError
from repro.obs import export as _export
from repro.obs import requests as _requests
from repro.serve.service import QueryService

logger = logging.getLogger(__name__)

DEFAULT_TENANT = "anonymous"

#: Largest ``POST /query`` body accepted (a query is a few hundred
#: bytes); anything longer is refused before it is read.
MAX_BODY_BYTES = 1 << 20


def _integer(name: str, value) -> int:
    # int() would truncate 2.7 to 2 and read true as 1.
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise QueryError(f"{name!r} takes integers, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    # float() would read true as 1.0.
    if isinstance(value, bool):
        raise QueryError(f"{name!r} must be a number, got {value!r}")
    return float(value)


def parse_request(params: dict, headers=None) -> tuple[str, PreferenceQuery, str]:
    """(tenant, query, algorithm) from a request's parameters.

    ``params`` is a flat dict (JSON body or flattened query string);
    raises :class:`QueryError` on anything malformed — the HTTP layer
    maps that to a 400.
    """
    if not isinstance(params, dict):
        raise QueryError("request body must be a JSON object")
    tenant = str(params.get("tenant") or (
        headers.get("X-Tenant") if headers else None
    ) or DEFAULT_TENANT)
    algorithm = str(params.get("algorithm", "stps"))
    try:
        k = _integer("k", params["k"])
        radius = _real("radius", params["radius"])
        lam = _real("lam", params["lam"])
    except KeyError as exc:
        raise QueryError(f"missing required field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise QueryError(f"malformed numeric field: {exc}") from exc
    masks = params.get("masks")
    if isinstance(masks, str):
        masks = [m for m in masks.split(",") if m]
    if not isinstance(masks, (list, tuple)) or not masks:
        raise QueryError("'masks' must be a non-empty list of bit masks")
    try:
        mask_tuple = tuple(_integer("masks", m) for m in masks)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"malformed mask: {exc}") from exc
    variant_name = str(params.get("variant", "range"))
    try:
        variant = Variant(variant_name)
    except ValueError as exc:
        raise QueryError(
            f"unknown variant {variant_name!r}; choose from "
            f"{[v.value for v in Variant]}"
        ) from exc
    query = PreferenceQuery(k, radius, lam, mask_tuple, variant)
    return tenant, query, algorithm


def _decision_body(decision) -> dict:
    """JSON payload for one ServeDecision."""
    if decision.status == 200:
        result = decision.result
        return {
            "status": 200,
            "trace_id": decision.trace_id,
            "cached": decision.cached,
            "items": [
                {"oid": it.oid, "score": it.score, "x": it.x, "y": it.y}
                for it in result.items
            ],
            "stats": {
                "wall_s": result.stats.wall_s,
                "io_reads": result.stats.io_reads,
                "io_time_s": result.stats.io_time_s,
                "combinations": result.stats.combinations,
                "trace_id": result.stats.trace_id,
            },
            "queue_wait_s": decision.queue_wait_s,
            "latency_s": decision.latency_s,
        }
    body = {
        "status": decision.status,
        "error": decision.reason,
        "trace_id": decision.trace_id,
    }
    if decision.status == 429:
        body["retry_after_s"] = decision.retry_after_s
    return body


class _ServeHandler(_export._Handler):
    """Query endpoint + everything the metrics handler already serves."""

    service: QueryService  # set by ServeServer

    # Accurate Content-Length on every response (send_error included)
    # makes HTTP/1.1 keep-alive safe — and keep-alive is what lets a
    # load generator sustain hundreds of QPS without a connection
    # handshake per request.
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        split = urlsplit(self.path)
        if split.path == "/query":
            params = {
                key: values[-1]
                for key, values in parse_qs(split.query).items()
            }
            self._serve_query(params)
        elif split.path == "/stats/serve":
            self._send_json(200, self.service.describe())
        else:
            super().do_GET()

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        if urlsplit(self.path).path != "/query":
            self.send_error(404, "unknown path")
            return
        # Content-Length is client input: a negative value would turn
        # into rfile.read(-1) (read until the socket times out) and an
        # unchecked one into an unbounded buffer.  The body stays
        # unread on refusal, so the connection cannot be reused.
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
        except ValueError as exc:
            self.close_connection = True
            self._send_json(400, {"status": 400, "error": f"bad body: {exc}"})
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_json(413, {
                "status": 413,
                "error": f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
            })
            return
        try:
            params = json.loads(self.rfile.read(length) or b"{}")
        # RecursionError: a deeply nested body (JSONDecodeError and bad
        # UTF-8 are ValueErrors).
        except (ValueError, RecursionError) as exc:
            self._send_json(400, {"status": 400, "error": f"bad body: {exc}"})
            return
        self._serve_query(params)

    def _serve_query(self, params: dict) -> None:
        try:
            tenant, query, algorithm = parse_request(params, self.headers)
        except (QueryError, ReproError) as exc:
            self._send_json(400, {"status": 400, "error": str(exc)})
            return
        # A valid client traceparent donates its trace id; anything
        # malformed (wrong widths, all-zero ids, version ff, uppercase
        # hex) falls back to a service-minted id per the W3C spec.
        parsed = _requests.parse_traceparent(self.headers.get("traceparent"))
        decision = self.service.handle(
            tenant, query, algorithm=algorithm,
            trace_id=parsed[0] if parsed else None,
        )
        # The response names the request's trace in W3C form whatever
        # the outcome — a 429 is exactly when the client wants the id.
        headers = {"traceparent": _requests.format_traceparent(
            decision.trace_id
        )}
        if decision.status == 429:
            # Whole seconds, rounded up: Retry-After is integral in
            # HTTP, and rounding down would invite an early retry that
            # meets a still-empty bucket.
            headers["Retry-After"] = str(
                max(1, int(decision.retry_after_s + 0.999))
            )
        self._send_json(decision.status, _decision_body(decision), headers)

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        self._send(
            status, "application/json",
            (json.dumps(payload) + "\n").encode(), headers,
        )

    def log_message(self, fmt: str, *args) -> None:
        logger.debug("serve endpoint: " + fmt, *args)


class ServeServer(_export.MetricsServer):
    """The online query service: one port, query + observability.

    A :class:`~repro.obs.export.MetricsServer` whose handler also binds
    a :class:`QueryService` for the ``/query`` + ``/stats/serve``
    routes; :meth:`close` closes the service after the listener.

    Usage::

        service = QueryService(executor, config, live=live)
        server = ServeServer(service, port=0).start()
        print(f"query http://127.0.0.1:{server.port}/query")
        ...
        server.close()
    """

    handler = _ServeHandler

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
    ) -> None:
        super().__init__(registry, host, port)
        self.service = service

    def _bindings(self) -> dict:
        return {**super()._bindings(), "service": self.service}

    def close(self) -> None:
        """Stop listening, then close the service.

        The shared executor is left running (its owner closes it).
        """
        super().close()
        self.service.close()
