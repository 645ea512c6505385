"""Online query serving: multi-tenant admission control over the engine.

The serving layer turns the batch-oriented engine into a long-lived
service (ROADMAP: "online serving").  Layers, bottom-up:

* :mod:`repro.serve.quota` — per-tenant token buckets with lazy,
  bounded tenant tables (:class:`TenantQuotas`);
* :mod:`repro.serve.cache` — the tenant-agnostic result cache
  (:class:`ResultCache`), kept coherent by replaying ``repro.live``
  mutation deltas against each entry;
* :mod:`repro.serve.service` — transport-agnostic admission control +
  dispatch (:class:`QueryService`, :class:`ServeConfig`): quota gate,
  cache gate, SLO-driven backpressure gate, then
  :meth:`QueryExecutor.execute_one`;
* :mod:`repro.serve.http` — the stdlib HTTP front end
  (:class:`ServeServer`): ``/query`` + ``/stats/serve`` mounted
  alongside every :class:`~repro.obs.export.MetricsServer` route.

``python -m repro.serve`` boots a demo server over a synthetic world —
see the README "Serving queries" quickstart; DESIGN.md §15 documents
the admission-control and cache-keying protocol.
"""

from repro.serve.cache import ResultCache, query_signature
from repro.serve.http import ServeServer, parse_request
from repro.serve.quota import QuotaSpec, TenantQuotas
from repro.serve.service import (
    QueryService,
    ServeConfig,
    ServeDecision,
)

__all__ = [
    "QuotaSpec",
    "TenantQuotas",
    "ResultCache",
    "query_signature",
    "QueryService",
    "ServeConfig",
    "ServeDecision",
    "ServeServer",
    "parse_request",
]
