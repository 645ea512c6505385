"""Benchmark-owned spans at the layer boundaries, recorded from outside.

Nothing under ``src/`` is edited or monkeypatched: the traced run
injects thin delegating proxies through the public constructors
(``ServeServer(service)``, ``QueryService(executor)``,
``QueryExecutor(processor)``) and builds the trees on a page file that
times its own ``read``/``write``.  Spans are ``(name, start, end,
request id)`` tuples kept in memory; one request's spans share the id
the client chose, which the program carries across the handler and pool
threads as its trace id.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

from repro.core.processor import QueryProcessor
from repro.index.object_rtree import ObjectRTree
from repro.index.srt import SRTIndex
from repro.obs import tracing as _tracing
from repro.storage.pagefile import MemoryPageFile

#: Outermost to innermost.  A request's span at one layer is the parent
#: of its spans at the next layer present below it.
LAYERS = (
    "client",
    "serve.service",
    "core.executor",
    "core.processor",
    "storage.pagefile",
)
PAGE_READ = "storage.pagefile.read"
PAGE_WRITE = "storage.pagefile.write"


def layer_of(span_name: str) -> str:
    return "storage.pagefile" if span_name.startswith("storage.") else span_name


class Recorder:
    """In-memory span list; ``list.append`` is atomic, so threads share it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.on = False

    def add(self, name: str, t0: float, t1: float, rid: str | None) -> None:
        self.spans.append((name, t0, t1, rid))


class TimedPageFile(MemoryPageFile):
    """The stock in-memory page file with a span around read and write."""

    def __init__(self, rec: Recorder, page_size: int) -> None:
        super().__init__(page_size)
        self._rec = rec

    def read(self, page_id: int):
        if not self._rec.on:
            return super().read(page_id)
        t0 = perf_counter()
        page = super().read(page_id)
        self._rec.add(
            PAGE_READ, t0, perf_counter(), _tracing.current_trace_id()
        )
        return page

    def write(self, page) -> None:
        if not self._rec.on:
            return super().write(page)
        t0 = perf_counter()
        super().write(page)
        self._rec.add(
            PAGE_WRITE, t0, perf_counter(), _tracing.current_trace_id()
        )


class LayerProxy:
    """Delegates every attribute to ``target``; spans one method.

    The request id is the ``trace_id`` keyword when the caller passes
    one (``QueryService.handle``), else the program's ambient trace id,
    which the executor re-enters on its pool threads.
    """

    def __init__(self, target, rec: Recorder, layer: str, method: str,
                 observe=None) -> None:
        self._target = target
        self._rec = rec
        self._layer = layer
        self._call = getattr(target, method)
        self._observe = observe
        # An instance attribute wins over __getattr__, so only this one
        # method is intercepted.
        setattr(self, method, self._spanned)

    def _spanned(self, *args, **kwargs):
        if not self._rec.on:
            return self._call(*args, **kwargs)
        t0 = perf_counter()
        result = self._call(*args, **kwargs)
        t1 = perf_counter()
        self._rec.add(
            self._layer, t0, t1,
            kwargs.get("trace_id") or _tracing.current_trace_id(),
        )
        if self._observe is not None:
            self._observe(result, t1 - t0)
        return result

    def __getattr__(self, name):
        return getattr(self._target, name)


class Plain:
    """The untraced run: stock objects, no request ids."""

    def build(self, world, objects, feature_sets, buffer_pages):
        return QueryProcessor.build(
            objects, feature_sets, index="srt",
            page_size=world.page_size, buffer_pages=buffer_pages,
        )

    def processor(self, processor):
        return processor

    def executor(self, executor):
        return executor

    def service(self, service):
        return service

    def request_id(self) -> str | None:
        return None

    def scope(self, rid):
        return nullcontext()

    def recording(self):
        return nullcontext()


class Traced(Plain):
    """The span pass: timed page files and a proxy at every boundary."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.queue_waits: list[float] = []
        self.hit_durations: list[float] = []
        self._ids = itertools.count(1)

    def build(self, world, objects, feature_sets, buffer_pages):
        def pagefile():
            return TimedPageFile(self.rec, world.page_size)

        object_tree = ObjectRTree.build(
            objects, pagefile=pagefile(), buffer_pages=buffer_pages
        )
        feature_trees = [
            SRTIndex.build(fs, pagefile=pagefile(), buffer_pages=buffer_pages)
            for fs in feature_sets
        ]
        return QueryProcessor(object_tree, feature_trees)

    def processor(self, processor):
        return LayerProxy(processor, self.rec, "core.processor", "query")

    def executor(self, executor):
        return LayerProxy(
            executor, self.rec, "core.executor", "execute_one",
            observe=lambda out, _dur: self.queue_waits.append(out[1]),
        )

    def service(self, service):
        def observe(decision, duration):
            if decision.cached:
                self.hit_durations.append(duration)

        return LayerProxy(
            service, self.rec, "serve.service", "handle", observe=observe
        )

    def request_id(self) -> str:
        """A fresh W3C-width (32 hex) id; never all-zero."""
        return f"{next(self._ids):032x}"

    def scope(self, rid):
        return _tracing.trace_scope(rid)

    @contextmanager
    def recording(self):
        self.rec.on = True
        try:
            yield
        finally:
            self.rec.on = False


def traceparent(rid: str) -> str:
    return f"00-{rid}-00f067aa0ba902b7-01"


def _covered(parent: tuple[float, float], children) -> float:
    """Length of ``parent`` covered by the (non-overlapping) children."""
    p0, p1 = parent
    return sum(max(0.0, min(c1, p1) - max(c0, p0)) for c0, c1 in children)


def ledger(spans, request_ids) -> dict:
    """Mean self time per layer over the given requests.

    Self time is a span's duration minus the part of its interval that
    its child spans cover.  ``residual_share`` compares the mean client
    span with the sum of the layer means: it is near zero only when
    every request's spans nest completely, which is what it checks.
    """
    wanted = set(request_ids)
    by_request: dict[str, dict[str, list]] = defaultdict(
        lambda: defaultdict(list)
    )
    for name, t0, t1, rid in spans:
        if rid in wanted:
            by_request[rid][layer_of(name)].append((t0, t1))
    self_sum = dict.fromkeys(LAYERS, 0.0)
    client_sum = 0.0
    for layers in by_request.values():
        present = [layer for layer in LAYERS if layer in layers]
        for layer, below in zip(present, present[1:] + [None]):
            children = layers[below] if below else ()
            for interval in layers[layer]:
                self_sum[layer] += (
                    interval[1] - interval[0] - _covered(interval, children)
                )
        client_sum += sum(t1 - t0 for t0, t1 in layers.get("client", ()))
    n = max(1, len(by_request))
    out = {layer: total / n for layer, total in self_sum.items()}
    client_mean = client_sum / n
    out["client_mean"] = client_mean
    out["residual_share"] = (
        abs(client_mean - sum(self_sum.values()) / n) / client_mean
        if client_mean else 0.0
    )
    return out


def write_chrome_trace(path, spans) -> None:
    """Chrome trace-event JSON: one lane per layer, ``args.parent`` set.

    Open in ``chrome://tracing`` or Perfetto; filter on
    ``args.request_id`` to follow one request down the layers.
    """
    origin = min((t0 for _, t0, _, _ in spans), default=0.0)
    present: dict[str | None, set[str]] = defaultdict(set)
    for name, _, _, rid in spans:
        present[rid].add(layer_of(name))
    events = []
    for name, t0, t1, rid in spans:
        layer = layer_of(name)
        depth = LAYERS.index(layer)
        parent = next(
            (up for up in reversed(LAYERS[:depth]) if up in present[rid]),
            None,
        )
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": depth,
            "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"request_id": rid, "parent": parent},
        })
    for depth, layer in enumerate(LAYERS):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": depth,
            "args": {"name": layer},
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
