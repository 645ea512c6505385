"""Near-zero-overhead span tracer with Chrome trace-event export.

Records per-query phase timelines — STPS feature pulls / combination
assembly / threshold updates, STDS chunk scans, R-tree node expansion —
as *spans* and exports them in the Chrome
trace-event JSON format (load the file in Perfetto / ``chrome://tracing``
to see the timeline, one track per thread).

Tracing is **disabled by default**: :func:`span` returns a shared no-op
context manager after a single module-flag check, so instrumented hot
paths pay one branch and one call when tracing is off (the tier-1
overhead budget is <2%; see ``tests/obs/test_tracing.py``).  Hot loops
can do even better by checking :data:`enabled` (or
``recorder.active``) once per iteration and skipping the call entirely.

The event buffer is process-wide, thread-safe, and capped at
:data:`MAX_EVENTS` (overflow is counted, not stored).  It holds compact
span tuples with raw ``time.perf_counter`` stamps; Chrome-event dicts
(microseconds since a module epoch) are built only when someone reads.

This module is also the one carrier of trace identity (DESIGN.md §9): a
single ContextVar holds the :class:`TraceContext` (trace id + optional
per-request :class:`SpanCollector`).  :class:`trace_scope` starts a
trace and everything it calls runs on the same thread, inside it.

:class:`PhaseRecorder` bridges the tracer and per-query cost anatomy:
algorithms create one per query (via :func:`recorder`, a no-op
singleton unless tracing is on), wrap their phases in
``recorder.span("phase")``, and store ``recorder.totals()`` into
``QueryStats.phase_times``.
"""

from __future__ import annotations

import collections
import contextvars
import json
import os
import threading
import time
from pathlib import Path

#: Hard cap on buffered events; beyond it events are counted as dropped.
MAX_EVENTS = 1_000_000

#: Module flag, read on hot paths.  Mutate only via :func:`set_enabled`.
enabled = False

_lock = threading.Lock()
_events: list[tuple] = []
_dropped = 0
_thread_names: dict[int, str] = {}
_EPOCH = time.perf_counter()


# ----------------------------------------------------------------------
# the trace context (one ContextVar) and per-request collection
# ----------------------------------------------------------------------
#: A span is this 7-tuple everywhere — global buffer and collector:
#: ``(name, cat, t0, t1, args, trace_id, tid)`` with raw
#: ``perf_counter`` stamps and ``tid`` the recording thread's id.
#: Chrome-event dicts exist only on the read side
#: (:func:`events`, :func:`chrome_trace`, :meth:`SpanCollector.snapshot`).

#: Spans one collector buffers at most; beyond it the oldest fall off
#: (a single request must not hoard memory).
MAX_COLLECTOR_SPANS = 2048


class SpanCollector:
    """Everything one traced request produces: spans + query entries.

    ``spans`` is a bounded ring keeping the *newest* spans: a span is
    emitted when it closes, so the enclosing request / gate / executor
    spans arrive last — evicting the oldest sheds early micro leaf
    phases while the tree's trunk survives a span storm.  ``records``
    holds the trace-store entry
    (:class:`~repro.obs.requests.RequestTrace`) of every query run under
    this trace; whoever owns the collector hands both to the trace store
    when the request finishes, as one entry.  A bare sharded query
    borrows one (via :class:`resume`, so spans stay unarmed) only to
    gather its shards' entries.  Appends lean on the GIL instead of a
    lock (once per span on the serving hot path).
    """

    __slots__ = ("spans", "records")

    def __init__(self) -> None:
        self.spans: collections.deque[tuple] = collections.deque(
            maxlen=MAX_COLLECTOR_SPANS
        )
        self.records: list = []

    def snapshot(self) -> list[dict]:
        """The buffered spans as Chrome-style event dicts.

        Call after the request's fan-out has completed — the ring is
        not locked against concurrent appends.
        """
        return _chrome_events(list(self.spans))


class TraceContext:
    """What a hop must carry to stay inside a trace: id + collector.

    ``QueryProcessor.query`` mints one per query unless one is already
    active; spans, store records and exemplars join on
    ``trace_id``.  The serving layer attaches a :class:`SpanCollector`
    so one request's spans are captured even while global tracing is
    off.  The query path has no thread hop left; :func:`capture` /
    :class:`resume` remain for callers that start threads of their own.
    """

    __slots__ = ("trace_id", "collector")

    def __init__(
        self, trace_id: str, collector: SpanCollector | None = None
    ) -> None:
        self.trace_id = trace_id
        self.collector = collector


_ctx_var: contextvars.ContextVar[TraceContext | None] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)

#: How many :class:`trace_scope` blocks with a collector are live
#: process-wide.  Lets :func:`span` stay a single flag check when no
#: request is being collected anywhere (the idle / tracing-off case).
_collecting = 0


def new_trace_id() -> str:
    """A fresh 16-hex-char id: a trace id, or a W3C span id.

    Never all zero, since W3C Trace Context refuses an all-zero trace or
    parent id.
    """
    while (trace_id := os.urandom(8).hex()) == "0000000000000000":
        pass
    return trace_id


def capture() -> TraceContext | None:
    """The trace context active here, to hand to :class:`resume`."""
    return _ctx_var.get()


def current_trace_id() -> str | None:
    """The trace id active in this context, or None outside a query."""
    ctx = _ctx_var.get()
    return ctx.trace_id if ctx is not None else None


class resume:
    """Re-enter a captured context (None is fine) for the enclosed block.

    A ``__slots__`` class rather than a generator context manager: this
    sits on the per-query path, where the generator protocol's overhead
    is measurable.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext | None) -> None:
        self._ctx = ctx

    def __enter__(self) -> TraceContext | None:
        self._token = _ctx_var.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc) -> bool:
        _ctx_var.reset(self._token)
        return False


class trace_scope(resume):
    """Start a trace: ``trace_id`` (and ``collector``) for the block.

    Owns the collector's lifetime — spans anywhere in the process are
    armed while it is live — whereas :class:`resume` only borrows a
    context some enclosing ``trace_scope`` (or query) owns.
    """

    __slots__ = ()

    def __init__(
        self, trace_id: str, collector: SpanCollector | None = None
    ) -> None:
        self._ctx = TraceContext(trace_id, collector)

    def __enter__(self) -> str:
        global _collecting
        if self._ctx.collector is not None:
            with _lock:
                _collecting += 1
        self._token = _ctx_var.set(self._ctx)
        return self._ctx.trace_id

    def __exit__(self, *exc) -> bool:
        global _collecting
        _ctx_var.reset(self._token)
        if self._ctx.collector is not None:
            with _lock:
                _collecting -= 1
        return False


# ----------------------------------------------------------------------
# enable / disable
# ----------------------------------------------------------------------
def set_enabled(on: bool) -> bool:
    """Turn tracing on/off; returns the previous enabled flag."""
    global enabled
    previous = enabled
    enabled = bool(on)
    return previous


class enabled_tracing:
    """Context manager enabling tracing for a block (tests, CLI)."""

    def __enter__(self) -> None:
        self._previous = set_enabled(True)

    def __exit__(self, *exc) -> bool:
        set_enabled(self._previous)
        return False


# ----------------------------------------------------------------------
# span recording
# ----------------------------------------------------------------------
def add_complete(
    name: str,
    t0: float,
    t1: float,
    cat: str = "query",
    args: dict | None = None,
) -> None:
    """Record one span from perf_counter stamps ``t0``/``t1``.

    Delivered to the context's collector (if any) and, while tracing is
    on, to the global buffer — the same tuple, no per-span dict.
    """
    global _dropped
    ctx = _ctx_var.get()
    collector = ctx.collector if ctx is not None else None
    if collector is None and not enabled:
        return  # armed by some other request's collector, not ours
    tid = threading.get_ident()
    trace_id = ctx.trace_id if ctx is not None else None
    span = (name, cat, t0, t1, args, trace_id, tid)
    if collector is not None:
        collector.spans.append(span)
    if not enabled:
        return
    with _lock:
        if len(_events) >= MAX_EVENTS:
            _dropped += 1
            return
        if tid not in _thread_names:
            _thread_names[tid] = threading.current_thread().name
        _events.append(span)


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A timed block; folds its duration into ``recorder`` when given."""

    __slots__ = ("name", "cat", "args", "_recorder", "_t0")

    def __init__(
        self, name: str, cat: str, args: dict | None, recorder_=None
    ) -> None:
        self.name = name
        self.cat = cat
        self.args = args
        self._recorder = recorder_
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        if self._recorder is not None:
            self._recorder.add(self.name, t1 - self._t0)
        add_complete(self.name, self._t0, t1, self.cat, self.args)
        return False


def armed() -> bool:
    """Whether spans record here: tracing is on or a collector is live."""
    return bool(enabled or _collecting)


def span(name: str, cat: str = "query", **args):
    """Context manager timing a block as one span.

    One branch + one call when tracing is off (returns the shared no-op
    span); a real timed span otherwise.  A live per-request collector
    anywhere in the process also arms spans — :func:`add_complete` then
    routes them to the context's collector without touching the global
    buffer.
    """
    if not enabled and not _collecting:
        return NULL_SPAN
    return _Span(name, cat, args or None)


# ----------------------------------------------------------------------
# per-query phase accounting
# ----------------------------------------------------------------------
class PhaseRecorder:
    """Accumulates per-phase wall time for one query and emits spans.

    ``active`` is True; hot loops may use it to skip instrumentation
    calls entirely when handed the null recorder instead.
    """

    __slots__ = ("_totals", "_lock")

    active = True

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._lock = threading.Lock()

    def span(self, name: str, cat: str = "phase", **args) -> _Span:
        return _Span(name, cat, args or None, self)

    def add(self, name: str, seconds: float) -> None:
        """Fold ``seconds`` into one phase total (thread-safe)."""
        with self._lock:
            self._totals[name] = self._totals.get(name, 0.0) + seconds

    def totals(self) -> dict[str, float]:
        """Per-phase wall seconds accumulated so far (a copy)."""
        with self._lock:
            return dict(self._totals)


class _NullRecorder:
    """Shared no-op recorder returned while tracing is off."""

    __slots__ = ()

    active = False

    def span(self, name: str, cat: str = "phase", **args) -> _NullSpan:
        return NULL_SPAN

    def add(self, name: str, seconds: float) -> None:
        pass

    def totals(self) -> dict[str, float]:
        return {}


NULL_RECORDER = _NullRecorder()


def recorder():
    """A fresh :class:`PhaseRecorder` while tracing is on, else the no-op
    singleton.

    Only global tracing arms it (``set_enabled``: the ``repro.obs``
    workload CLI, the layer ledger's phase pass, a traced EXPLAIN).  A
    live per-request collector does not: an STPS query emits phase
    spans per pull, ~1 400 of them for a served W2 query (a collector
    keeps :data:`MAX_COLLECTOR_SPANS`), and timing them made a served
    query cost 1.5x its plain self.  Served queries keep their
    request, gate and ``query.*`` spans and an empty ``phase_times``.
    """
    return PhaseRecorder() if enabled else NULL_RECORDER


# ----------------------------------------------------------------------
# export (the read side: span tuples become Chrome trace events here)
# ----------------------------------------------------------------------
def _chrome_events(spans: list[tuple]) -> list[dict]:
    pid = os.getpid()
    out = []
    for name, cat, t0, t1, args, trace_id, tid in spans:
        event = {
            "name": name, "cat": cat, "ts": (t0 - _EPOCH) * 1e6,
            "ph": "X", "dur": max(0.0, (t1 - t0) * 1e6),
            "pid": pid, "tid": tid,
        }
        if trace_id is not None:
            args = dict(args) if args else {}
            args.setdefault("trace_id", trace_id)
        if args:
            event["args"] = args
        out.append(event)
    return out


def events() -> list[dict]:
    """The buffered events as Chrome-style dicts (built per call)."""
    with _lock:
        spans = list(_events)
    return _chrome_events(spans)


def dropped_events() -> int:
    """Events discarded because the buffer was full."""
    return _dropped


def clear() -> int:
    """Drop all buffered events; returns how many were dropped."""
    global _dropped
    with _lock:
        n = len(_events)
        _events.clear()
        _thread_names.clear()
        _dropped = 0
    return n


def chrome_trace() -> dict:
    """The buffered events as a Chrome trace-event JSON object.

    Adds ``thread_name`` metadata events so Perfetto labels the caller
    threads' tracks.
    """
    with _lock:
        spans = list(_events)
        names = dict(_thread_names)
    pid = os.getpid()
    trace_events = _chrome_events(spans)
    for tid, name in sorted(names.items()):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path) -> Path:
    """Write :func:`chrome_trace` to ``path`` (returns the Path written)."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace()) + "\n")
    return path
