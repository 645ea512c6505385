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
* :mod:`repro.serve.http` — :class:`ServeServer`, a
  :class:`~repro.obs.export.MetricsServer` that adds ``/query`` +
  ``/stats/serve`` to every observability route.

``python -m repro.serve`` boots a demo server — README "Serving
queries"; DESIGN.md §14 has the protocol.
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
