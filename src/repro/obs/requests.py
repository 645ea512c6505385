"""Request-level tracing: W3C ``traceparent`` + the tail-sampled trace store.

* :func:`parse_traceparent` / :func:`format_traceparent` — W3C Trace
  Context interop.  A client-supplied ``traceparent`` header donates its
  128-bit trace id, which then joins spans, query records and histogram
  exemplars exactly like an internally minted id
  (trace ids are opaque hex strings everywhere in the stack); the
  response carries a fresh ``traceparent`` naming the same trace.
* :class:`RequestTrace` + the module-level **trace store** — the one
  bounded buffer of finished work (DESIGN.md §9).  An entry is a served
  request (429s and cache hits included, with the span tree its
  :class:`~repro.obs.tracing.SpanCollector` gathered) or a bare engine
  query (``status`` 0); the queries an entry ran sit on its ``records``
  as entries of the same class.
* :func:`record` is the one writer of finished work.
* :func:`flight_records` flattens the store into one record per query:
  the view behind ``/flight.json``, ``python -m repro.obs --flight-out``
  and ``dump_jsonl(path, docs=flight_records())``.
* **Tail-based sampling** — the one keep/drop decision, taken when the
  request *finishes*: errors (4xx/5xx), shed requests (429) and
  requests slower than the SLO threshold are always kept; the boring
  bulk is represented by a deterministic 1-in-N uniform sample.  The
  store is byte-bounded; over budget it evicts oldest *uniform* entries
  first and touches interesting ones only when nothing boring is left.
* ``/traces.json?trace_id=…&tenant=…&min_ms=…`` (served by
  :mod:`repro.obs.export`) and ``python -m repro.obs trace <id>``
  (:func:`render_trace_tree`) are the query paths.

The store is process-wide, thread-safe, disabled by default (one flag
check per request or query when off) and never raises into the serving
path.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import tracing as _tracing

#: Default byte budget for buffered traces (estimated JSON size).
DEFAULT_MAX_BYTES = 2 * 1024 * 1024

#: Requests at or over this duration are kept as "slow" (tail sampling).
#: Matches the backpressure gate's default latency target
#: (``ServeConfig.latency_slo_s``).
DEFAULT_SLOW_THRESHOLD_S = 0.1

#: Keep one in this many boring requests as the uniform sample.
DEFAULT_UNIFORM_EVERY = 20

#: Per-trace span ceiling; a runaway span producer must not let one
#: request dominate the store.
MAX_SPANS_PER_TRACE = 512

#: Traces one :func:`query_traces` answer holds at most.
_QUERY_TRACES_LIMIT = 100

#: Module flag, read once per request / query.  Mutate only via
#: :func:`configure`.
enabled = False

_lock = threading.Lock()
#: Kept entries, oldest first, split by what eviction may touch first so
#: shedding a victim is O(1) even when the store is full of ``shed``
#: traces; :func:`entries` merges the two back into admission order.
_uniform: deque["RequestTrace"] = deque()
_interesting: deque["RequestTrace"] = deque()
_bytes = 0
_max_bytes = DEFAULT_MAX_BYTES
_slow_threshold_s = DEFAULT_SLOW_THRESHOLD_S
_uniform_every = DEFAULT_UNIFORM_EVERY
#: Sampling / eviction accounting, reported by :func:`stats`.
_counts = {
    "seen": 0, "dropped": 0, "evicted_uniform": 0, "evicted_interesting": 0,
}
_kept_by_reason: dict[str, int] = {}

# ----------------------------------------------------------------------
# W3C Trace Context (traceparent)
# ----------------------------------------------------------------------
_HEX = frozenset("0123456789abcdef")


def _is_hex(value: str) -> bool:
    # The W3C spec mandates lowercase hex; uppercase is invalid on the
    # wire, so an uppercase header falls back to a fresh internal id.
    return bool(value) and _HEX.issuperset(value)


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a ``traceparent`` header.

    Returns None for anything invalid per W3C Trace Context level 1:
    wrong field count or width, non-(lowercase-)hex characters, the
    all-zero trace or parent id, and the forbidden version ``ff``.
    Unknown future versions are accepted when their first four fields
    parse (the spec's forward-compatibility rule); version ``00`` must
    have exactly four fields.
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, parent_id, flags = parts[:4]
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if version == "00" and len(parts) != 4:
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    if trace_id == "0" * 32:
        return None
    if len(parent_id) != 16 or not _is_hex(parent_id):
        return None
    if parent_id == "0" * 16:
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    return trace_id, parent_id


def w3c_trace_id(trace_id: str) -> str:
    """``trace_id`` widened to the 32-hex W3C form.

    Internally minted ids are 16 hex chars; zero-padding on the left
    yields a stable, reversible 128-bit form.  Ids already 32 wide
    (client-donated) pass through unchanged.
    """
    tid = trace_id.lower()
    if len(tid) < 32:
        tid = tid.rjust(32, "0")
    return tid[:32]


def format_traceparent(
    trace_id: str, span_id: str | None = None, flags: int = 0x01
) -> str:
    """A response ``traceparent`` naming ``trace_id``.

    The parent-id field carries a fresh span id (this service is the
    caller's child span); flags default to ``01`` (sampled) because a
    request that reached us was, by definition, traced here.
    """
    if span_id is None:
        span_id = _tracing.new_trace_id()
    return f"00-{w3c_trace_id(trace_id)}-{span_id}-{flags:02x}"


# ----------------------------------------------------------------------
# the trace store
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RequestTrace:
    """One finished piece of work: a served request or an engine query."""

    trace_id: str
    #: Unix timestamp of completion.
    ts: float
    #: Empty for engine queries that did not arrive through serving.
    tenant: str
    #: Terminal outcome: ok / cached / quota / backpressure /
    #: bad_request / error.
    outcome: str
    #: HTTP-shaped status; 0 for an engine query.
    status: int
    duration_s: float
    algorithm: str = ""
    #: Query arguments (None for requests rejected before parsing).
    query: dict | None = None
    #: Chrome-trace-shaped span events collected for this request.
    spans: list = field(default_factory=list)
    #: Entries of the queries run under this one: a request's, or a
    #: bare sharded query's per-shard parts.
    records: list = field(default_factory=list)
    #: Why tail sampling kept this trace: error / shed / slow / uniform.
    keep_reason: str = ""
    #: Rejection/error detail, when any.
    reason: str = ""
    #: Per-phase wall seconds (empty unless spans were armed).
    phase_times: dict = field(default_factory=dict)
    #: Digest of the query's ``QueryStats`` (see :func:`_counters`).
    counters: dict = field(default_factory=dict)
    #: ``{"type": ..., "message": ...}`` of a failed query, else None.
    error: dict | None = None
    #: Shard that ran or failed the query, when attributable.
    shard_id: int | None = None
    #: Estimated serialized size (store accounting).
    approx_bytes: int = 0
    #: Admission order across both eviction classes.
    seq: int = 0

    def to_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "ts": self.ts,
            "tenant": self.tenant,
            "outcome": self.outcome,
            "status": self.status,
            "duration_s": self.duration_s,
            "keep_reason": self.keep_reason,
            "spans": self.spans,
        }
        if self.algorithm:
            out["algorithm"] = self.algorithm
        if self.query is not None:
            out["query"] = self.query
        if self.reason:
            out["reason"] = self.reason
        records = [query.as_record() for query in self.queries()]
        if records:
            out["records"] = records
        return out

    def queries(self) -> list["RequestTrace"]:
        """The queries this entry holds: its ``records``, then itself
        when it is an engine query."""
        return self.records + [self] if self.status == 0 else self.records

    def as_record(self) -> dict:
        """This entry as one flat query record (the flight view)."""
        out = {
            "trace_id": self.trace_id,
            "ts": self.ts,
            "algorithm": self.algorithm,
            "variant": self.query["variant"],
            "query": self.query,
            "latency_s": self.duration_s,
            "phase_times": self.phase_times,
            "counters": self.counters,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.shard_id is not None:
            out["shard_id"] = self.shard_id
        if self.tenant:
            out["tenant"] = self.tenant
        if self.status == 429:
            out["decision"] = self.outcome  # the gate that shed it
        return out


def query_args(query) -> dict:
    """The query-shape dict stored with every entry."""
    return {
        "k": query.k,
        "radius": query.radius,
        "lam": query.lam,
        "keyword_masks": list(query.keyword_masks),
        "variant": query.variant.value,
    }


#: The scalar ``QueryStats`` counters an entry snapshots.
_COUNTERS = (
    "combinations", "features_pulled", "objects_scored", "io_reads",
    "buffer_hits", "node_cache_hits", "node_cache_misses", "heap_pops",
    "nodes_expanded", "rejected_2r", "pull_rounds", "objects_dropped",
)


def _counters(stats) -> dict:
    """Flat numeric digest (as the byte estimate assumes): the scalar
    counters, per-set visits and prunes, shard outcomes."""
    out = {name: getattr(stats, name) for name in _COUNTERS}
    for diag in stats.feature_sets:
        out[f"nodes_visited[{diag.set_id}]"] = diag.nodes_visited
        out[f"nodes_pruned[{diag.set_id}]"] = diag.nodes_pruned
    for shard in stats.shards:
        key = f"shards[{shard.verdict}]"
        out[key] = out.get(key, 0) + 1
    return out


def configure(
    enabled_: bool | None = None,
    max_bytes: int | None = None,
    slow_threshold_s: float | None = None,
    uniform_every: int | None = None,
) -> None:
    """(Re)configure the store — the only retention knobs there are.

    ``max_bytes`` bounds the buffered traces' estimated JSON size;
    ``slow_threshold_s`` is the tail-sampling latency cut
    (0.0 marks every request slow — i.e. keep everything);
    ``uniform_every`` keeps one in N boring requests (0 disables the
    uniform sample entirely).
    """
    global enabled, _max_bytes, _slow_threshold_s, _uniform_every
    with _lock:
        if max_bytes is not None:
            if max_bytes < 1:
                raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
            _max_bytes = int(max_bytes)
        if slow_threshold_s is not None:
            _slow_threshold_s = max(0.0, float(slow_threshold_s))
        if uniform_every is not None:
            if uniform_every < 0:
                raise ValueError(
                    f"uniform_every must be >= 0, got {uniform_every}"
                )
            _uniform_every = int(uniform_every)
        if enabled_:
            _evict()
    if enabled_ is not None:
        enabled = bool(enabled_)


def _keep_reason(status: int, outcome: str, duration_s: float) -> str | None:
    """Tail-sampling verdict; None means drop.  Caller holds the lock."""
    if status == 429:
        return "shed"
    if status >= 400 or outcome == "error":
        return "error"
    if duration_s >= _slow_threshold_s:
        return "slow"
    if _uniform_every > 0 and _counts["seen"] % _uniform_every == 0:
        return "uniform"
    return None


def _trim_spans(spans) -> list:
    """Copy span events, keeping only the renderable fields.

    Over the per-trace cap, the *longest* spans survive (original order
    kept): spans are emitted at close time, so a head truncation would
    drop exactly the tree's trunk and keep only micro leaf phases.
    """
    events = list(spans)
    if len(events) > MAX_SPANS_PER_TRACE:
        keep = sorted(
            range(len(events)),
            key=lambda i: events[i].get("dur", 0.0),
            reverse=True,
        )[:MAX_SPANS_PER_TRACE]
        events = [events[i] for i in sorted(keep)]
    out = []
    for event in events:
        trimmed = {
            "name": event.get("name", ""),
            "ts": event.get("ts", 0.0),
            "dur": event.get("dur", 0.0),
        }
        for key in ("cat", "pid", "tid"):
            if event.get(key) is not None:
                trimmed[key] = event[key]
        args = event.get("args")
        if args:
            # Coerce exotic arg values here so every stored trace is
            # JSON-serializable by construction (/traces.json, JSONL).
            trimmed["args"] = {
                k: (v if isinstance(v, (str, int, float, bool)) or v is None
                    else repr(v))
                for k, v in args.items() if k != "trace_id"
            }
        out.append(trimmed)
    return out


#: Rough serialized overhead of one trimmed span / one query record /
#: one whole trace (braces, keys, numeric fields) for the byte-budget
#: accounting; text of unbounded length is counted on top.
_SPAN_BASE_BYTES = 96
_RECORD_BASE_BYTES = 256
_TRACE_BASE_BYTES = 200


def _estimate_bytes(trace: RequestTrace) -> int:
    """Cheap structural size estimate (no serialization on the hot path).

    The byte bound is enforced against this estimate, so it only needs
    to be self-consistent and roughly proportional to the real JSON
    size — a ``json.dumps`` here would dominate the whole record path.
    """
    size = (
        _TRACE_BASE_BYTES
        + len(trace.trace_id) + len(trace.tenant) + len(trace.outcome)
        + len(trace.algorithm) + len(trace.reason)
    )
    if trace.query:
        size += 32 + 16 * len(trace.query)
    for event in trace.spans:
        size += _SPAN_BASE_BYTES + len(event.get("name", ""))
        args = event.get("args")
        if args:
            for key, value in args.items():
                size += len(key) + len(str(value)) + 8
    for query in trace.queries():
        size += _RECORD_BASE_BYTES + 24 * (
            len(query.query or ()) + len(query.phase_times)
            + len(query.counters)
        )
        if query.error is not None:
            size += len(query.error["message"])
    return size


def _evict() -> None:
    """Shed oldest *uniform* traces first; interesting ones only when
    nothing boring is left.  Caller holds the lock."""
    global _bytes
    while _bytes > _max_bytes and (_uniform or _interesting):
        if _uniform:
            victim = _uniform.popleft()
            _counts["evicted_uniform"] += 1
        else:
            victim = _interesting.popleft()
            _counts["evicted_interesting"] += 1
        _bytes -= victim.approx_bytes


def record(
    trace_id: str,
    tenant: str = "",
    outcome: str = "",
    status: int = 0,
    duration_s: float = 0.0,
    algorithm: str = "",
    query=None,
    spans=None,
    reason: str = "",
    records=(),
    stats=None,
    error: BaseException | None = None,
    shard_id: int | None = None,
) -> bool:
    """The one writer of finished work; returns whether it was kept.

    An engine query is written with ``status`` 0, its ``stats``, the
    ``shard_id`` of the shard that ran it, if any, and, when it failed,
    the ``error`` (``outcome`` then defaults to "error", and an error's
    own ``shard_id`` wins); a served request with its
    HTTP-shaped status, its span events (a list, or a zero-argument
    callable) and the ``records`` of the queries it ran.

    Inside a live :class:`~repro.obs.tracing.SpanCollector` the entry
    joins it and the collector's owner decides retention later (True is
    returned).  Otherwise the tail-sampling decision is taken here, and
    ``query`` / ``stats`` / ``spans`` are turned into dicts only for an
    entry that is kept.  Never raises into the serving path.
    """
    if not enabled:
        return False
    entry = RequestTrace(
        trace_id, time.time(), tenant,
        outcome or ("error" if error is not None else "ok"),
        status, duration_s, algorithm, reason=reason, records=list(records),
        shard_id=shard_id,
    )
    if error is not None:
        entry.error = {"type": type(error).__name__, "message": str(error)}
        entry.shard_id = getattr(error, "shard_id", shard_id)
    return _file(entry, query, stats, spans)


def _file(entry: RequestTrace, query=None, stats=None, spans=None) -> bool:
    """Join the live collector, or take the keep decision now."""
    global _bytes
    ctx = _tracing.capture()
    if ctx is not None and ctx.collector is not None:
        _fill(entry, query, stats, spans)
        ctx.collector.records.append(entry)
        return True
    with _lock:
        keep = _keep_reason(entry.status, entry.outcome, entry.duration_s)
        _counts["seen"] += 1
        if keep is None:
            _counts["dropped"] += 1
            return False
        _fill(entry, query, stats, spans)
        entry.keep_reason = keep
        entry.seq = _counts["seen"]
        entry.approx_bytes = _estimate_bytes(entry)
        (_uniform if keep == "uniform" else _interesting).append(entry)
        _bytes += entry.approx_bytes
        _kept_by_reason[keep] = _kept_by_reason.get(keep, 0) + 1
        _evict()
    return True


def _fill(entry: RequestTrace, query, stats, spans) -> None:
    if query is not None:
        entry.query = query_args(query)
    if stats is not None:
        entry.phase_times = dict(stats.phase_times)
        entry.counters = _counters(stats)
    if callable(spans):
        spans = spans()
    if spans:
        entry.spans = _trim_spans(spans)


def entries() -> list[RequestTrace]:
    """Stored traces in admission order, oldest first (a copy)."""
    with _lock:
        return list(
            heapq.merge(_uniform, _interesting, key=lambda t: t.seq)
        )


def _matching(trace_id=None, tenant=None, min_ms=None):
    """Stored traces passing every given filter, newest first."""
    wanted = w3c_trace_id(trace_id) if trace_id else None
    for trace in reversed(entries()):
        if wanted is not None and w3c_trace_id(trace.trace_id) != wanted:
            continue
        if tenant is not None and trace.tenant != tenant:
            continue
        if min_ms is not None and trace.duration_s * 1e3 < min_ms:
            continue
        yield trace


def get(trace_id: str) -> RequestTrace | None:
    """The newest stored trace with this id (16-hex suffixes match)."""
    return next(_matching(trace_id), None)


def query_traces(
    trace_id: str | None = None,
    tenant: str | None = None,
    min_ms: float | None = None,
) -> list[dict]:
    """Stored traces matching every given filter, newest first."""
    found = _matching(trace_id, tenant, min_ms)
    return [t.to_dict() for t in itertools.islice(found, _QUERY_TRACES_LIMIT)]


def stats() -> dict:
    """Store bookkeeping: sampling and eviction accounting."""
    with _lock:
        return {
            "enabled": enabled,
            "buffered": len(_uniform) + len(_interesting),
            "bytes": _bytes,
            "max_bytes": _max_bytes,
            **_counts,
            "kept": sum(_kept_by_reason.values()),
            "kept_by_reason": dict(_kept_by_reason),
            "slow_threshold_s": _slow_threshold_s,
            "uniform_every": _uniform_every,
        }


def payload(**filters) -> dict:
    """The ``/traces.json`` document (filters as :func:`query_traces`)."""
    return {"stats": stats(), "traces": query_traces(**filters)}


def flight_records() -> list[dict]:
    """Every stored query as one flat record, oldest first."""
    return [q.as_record() for entry in entries() for q in entry.queries()]


def flight_payload() -> dict:
    """The ``/flight.json`` document: :func:`flight_records` plus the
    store's bookkeeping, with ``buffered`` counting records."""
    records = flight_records()
    store = stats()
    store["buffered"] = len(records)
    store["latency_threshold_s"] = store["slow_threshold_s"]
    return {"stats": store, "records": records}


def _rotate(path: Path, backups: int) -> None:
    """Shift ``path`` -> ``path.1`` -> ... -> ``path.<backups>``."""
    oldest = path.with_name(path.name + f".{backups}")
    if oldest.exists():
        oldest.unlink()
    for i in range(backups - 1, 0, -1):
        src = path.with_name(path.name + f".{i}")
        if src.exists():
            src.rename(path.with_name(path.name + f".{i + 1}"))
    if path.exists() and backups >= 1:
        path.rename(path.with_name(path.name + ".1"))


def dump_jsonl(
    path,
    append: bool = False,
    max_bytes: int | None = None,
    backups: int = 3,
    docs: list[dict] | None = None,
) -> Path:
    """Write ``docs`` (default: the stored traces, oldest first) to
    ``path``, one JSON object per line.

    With ``max_bytes`` set, the dump path becomes size-bounded: when the
    write would push the file past the limit, the existing file rotates
    to ``path.1`` (shifting older backups up to ``path.<backups>``, the
    oldest dropped) and the dump starts a fresh file.  A single dump
    larger than ``max_bytes`` keeps only the *newest* documents that
    fit.  ``append=True`` adds to the current file instead of
    overwriting (the long-running-service shape; pair it with
    ``clear()`` to checkpoint the store).
    """
    path = Path(path)
    if docs is None:
        docs = [trace.to_dict() for trace in entries()]
    lines = [json.dumps(doc) + "\n" for doc in docs]
    if max_bytes is not None:
        kept: list[str] = []
        total = 0
        for line in reversed(lines):  # newest last in `lines`
            if total + len(line) > max_bytes:
                break
            kept.append(line)
            total += len(line)
        lines = list(reversed(kept))
        if path.exists():
            if not append:
                # Overwrite mode with a byte cap keeps history: the old
                # file shifts to ``path.1`` instead of being clobbered.
                _rotate(path, backups)
            elif path.stat().st_size + total > max_bytes:
                _rotate(path, backups)
                append = False
    with path.open("a" if append else "w") as fh:
        fh.writelines(lines)
    return path


def clear() -> int:
    """Drop every stored trace and reset the sampling counters."""
    global _bytes
    with _lock:
        n = len(_uniform) + len(_interesting)
        _uniform.clear()
        _interesting.clear()
        _bytes = 0
        _counts.update(dict.fromkeys(_counts, 0))
        _kept_by_reason.clear()
    return n


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _span_children(spans: list) -> list[tuple[dict, int]]:
    """(span, depth) rows via timestamp containment.

    Spans arrive as Chrome complete events; a span is a child of the
    innermost earlier span whose [ts, ts+dur] interval contains it.
    """
    ordered = sorted(
        spans, key=lambda e: (e.get("ts", 0.0), -e.get("dur", 0.0))
    )
    rows: list[tuple[dict, int]] = []
    stack: list[dict] = []
    for event in ordered:
        t0 = event.get("ts", 0.0)
        t1 = t0 + event.get("dur", 0.0)
        while stack:
            top = stack[-1]
            top_end = top.get("ts", 0.0) + top.get("dur", 0.0)
            # Epsilon: a child ending on its parent's boundary stays
            # nested (perf_counter stamps of nested exits often tie).
            if t0 >= top.get("ts", 0.0) - 1e-9 and t1 <= top_end + 1e-9:
                break
            stack.pop()
        rows.append((event, len(stack)))
        stack.append(event)
    return rows


def render_trace_tree(trace: dict) -> str:
    """One stored trace as an indented span tree (pure function).

    ``trace`` is a :meth:`RequestTrace.to_dict` document — from the
    in-process store, ``/traces.json``, or a JSONL dump.
    """
    header = (
        f"trace {trace.get('trace_id', '?')}  "
        f"tenant={trace.get('tenant', '?')}  "
        f"outcome={trace.get('outcome', '?')}  "
        f"status={trace.get('status', '?')}  "
        f"{trace.get('duration_s', 0.0) * 1e3:.2f}ms  "
        f"kept={trace.get('keep_reason', '?')}"
    )
    lines = [header]
    if trace.get("reason"):
        lines.append(f"  reason: {trace['reason']}")
    spans = trace.get("spans") or []
    if not spans:
        lines.append("  (no spans recorded)")
        return "\n".join(lines) + "\n"
    for event, depth in _span_children(spans):
        dur_ms = event.get("dur", 0.0) / 1e3
        args = event.get("args") or {}
        detail = " ".join(
            f"{k}={v}" for k, v in sorted(args.items())
        )
        pid = event.get("pid")
        pid_note = f" [pid {pid}]" if pid is not None and depth == 0 else ""
        lines.append(
            "  " + "  " * depth
            + f"- {event.get('name', '?')}  {dur_ms:.3f}ms"
            + (f"  {detail}" if detail else "")
            + pid_note
        )
    return "\n".join(lines) + "\n"
