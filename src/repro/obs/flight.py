"""Slow-query flight recorder: the engine-level view of the trace store.

Production triage needs the *specific* queries that blew the latency
budget or raised, not aggregate histograms.  Each executed query is
described by a :class:`QueryRecord` — query arguments, latency, phase
totals, one ``counters`` digest of its ``QueryStats`` (what an EXPLAIN
plan is a view of, so every record says what its query did), the trace
id (join key against spans and exemplars), and the error +
``shard_id`` for failures surfacing through the batch executor or the
sharded fan-out.

This module only *builds* records and *reads* them back.  Retention is
the trace store's (:mod:`repro.obs.requests`): a record built inside a
collected request rides on that request's
:class:`~repro.obs.tracing.SpanCollector` and is kept or dropped with
it; a record built outside one is offered to the store as its own
entry, under the same keep policy (error → slow → 1-in-N).  So the
recorder is on exactly when the store is::

    from repro.obs import flight, requests
    requests.configure(enabled_=True, slow_threshold_s=0.050)

and ``flight.records()`` / ``flight.dump_jsonl(path)`` / ``/flight.json``
are filters over what the store kept.  Callers check
``requests.enabled`` once per query, so the off path costs one branch.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.obs import requests as _requests
from repro.obs import tracing as _tracing


@dataclass(slots=True)
class QueryRecord:
    """One flight-recorder entry: an executed (or rejected) query."""

    trace_id: str
    #: Unix timestamp of record creation (wall clock, for correlation
    #: with external logs).
    ts: float
    algorithm: str
    variant: str
    #: Query arguments: k, radius, lam, keyword masks, variant.
    query: dict
    latency_s: float
    #: Per-phase wall seconds (empty unless tracing was on).
    phase_times: dict = field(default_factory=dict)
    #: Digest of ``QueryResult.stats`` (see :func:`_counters`).
    counters: dict = field(default_factory=dict)
    #: ``{"type": ..., "message": ...}`` for failed queries, else None.
    error: dict | None = None
    #: Shard that produced the failure, when attributable.
    shard_id: int | None = None
    #: Tenant whose request produced this record (serve-layer records).
    tenant: str | None = None
    #: Admission decision for serve-layer rejections (quota /
    #: backpressure), else None.
    decision: str | None = None

    def to_dict(self) -> dict:
        """Fields in declaration order; unset optional ones left out."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def query_args(query) -> dict:
    """The query-shape dict stored with records and traces."""
    return {
        "k": query.k,
        "radius": query.radius,
        "lam": query.lam,
        "keyword_masks": list(query.keyword_masks),
        "variant": query.variant.value,
    }


#: The scalar ``QueryStats`` counters a record snapshots.
_COUNTERS = (
    "combinations", "features_pulled", "objects_scored", "io_reads",
    "buffer_hits", "node_cache_hits", "node_cache_misses", "heap_pops",
    "nodes_expanded", "rejected_2r", "pull_rounds", "objects_dropped",
)


def _counters(stats) -> dict:
    """Flat numeric digest (as the store's byte estimate assumes): the
    scalar counters, per-set visits and prunes, shard outcomes."""
    out = {name: getattr(stats, name) for name in _COUNTERS}
    for diag in stats.feature_sets:
        out[f"nodes_visited[{diag.set_id}]"] = diag.nodes_visited
        out[f"nodes_pruned[{diag.set_id}]"] = diag.nodes_pruned
    for shard in stats.shards:
        key = f"shards[{shard.verdict}]"
        out[key] = out.get(key, 0) + 1
    return out


def _admit(record: QueryRecord) -> bool:
    """Hand one record to whoever decides retention for its trace.

    Inside a collected request that is the request's owner (the record
    joins the collector and shares the request's fate); otherwise the
    store decides now, with the record as an entry of its own.  Returns
    whether the record was accepted — for the collector case that is
    always True, the keep decision comes later.
    """
    if not _requests.enabled:
        return False
    ctx = _tracing.capture()
    if ctx is not None and ctx.collector is not None:
        ctx.collector.records.append(record)
        return True
    return _requests.record(
        trace_id=record.trace_id,
        tenant=record.tenant or "",
        outcome="error" if record.error is not None else "ok",
        status=0,
        duration_s=record.latency_s,
        algorithm=record.algorithm,
        query=record.query,
        records=(record,),
    )


def _offer(query, algorithm, trace_id, latency_s, **fields) -> bool:
    if not _requests.enabled:
        return False  # before building anything
    return _admit(
        QueryRecord(
            trace_id=trace_id,
            ts=time.time(),
            algorithm=algorithm,
            variant=query.variant.value,
            query=query_args(query),
            latency_s=latency_s,
            **fields,
        )
    )


def maybe_record(
    query, algorithm: str, trace_id: str, latency_s: float,
    stats=None,
) -> bool:
    """Offer a *successful* query; the store's keep policy decides."""
    return _offer(
        query, algorithm, trace_id, latency_s,
        phase_times=dict(stats.phase_times) if stats is not None else {},
        counters=_counters(stats) if stats is not None else {},
    )


def record_error(
    query, algorithm: str, trace_id: str, latency_s: float,
    error: BaseException, shard_id: int | None = None, stats=None,
) -> bool:
    """Offer a failed query (errors are always kept); ``stats`` is what
    it had counted when it died (the sharded fan-out's verdicts so far)."""
    if shard_id is None:
        shard_id = getattr(error, "shard_id", None)
    return _offer(
        query, algorithm, trace_id, latency_s,
        error={"type": type(error).__name__, "message": str(error)},
        shard_id=shard_id,
        counters=_counters(stats) if stats is not None else {},
    )


def record_rejection(
    query, algorithm: str, trace_id: str, latency_s: float,
    tenant: str | None = None, decision: str | None = None,
) -> bool:
    """Offer a serve-layer admission rejection (quota / backpressure).

    A shed request is exactly the traffic an operator gets paged about,
    so the record carries the tenant and the gate that rejected it; the
    serving layer calls this inside the request's trace scope, so it is
    stored once, with the 429's trace.
    """
    return _offer(
        query, algorithm, trace_id, latency_s,
        tenant=tenant, decision=decision,
    )


def ingest(records, shard_id: int | None = None) -> None:
    """Adopt records built in another process.

    Process-mode shard workers ship the records of their per-shard
    queries back over the result channel; the parent stamps ``shard_id``
    on those that carry none (so slow per-shard queries are
    attributable) and admits them exactly as if a shard thread had built
    them here.
    """
    for record in records:
        if record.shard_id is None:
            record.shard_id = shard_id
        _admit(record)


def records() -> list[QueryRecord]:
    """Every query record the store holds, oldest first (a copy)."""
    return [r for trace in _requests.entries() for r in trace.records]


def stats() -> dict:
    """The store's bookkeeping, with ``buffered`` counting records."""
    store = _requests.stats()
    store["buffered"] = len(records())
    store["latency_threshold_s"] = store["slow_threshold_s"]
    return store


def dump_jsonl(
    path,
    append: bool = False,
    max_bytes: int | None = None,
    backups: int = 3,
) -> Path:
    """Write :func:`records` as JSONL (see ``requests.dump_jsonl``)."""
    return _requests.dump_jsonl(
        path, append=append, max_bytes=max_bytes, backups=backups,
        docs=[r.to_dict() for r in records()],
    )
