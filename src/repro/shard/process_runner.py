"""Process-parallel shard execution over shared-memory page storage.

The serial fan-out in :mod:`repro.shard.sharded_processor` runs shards
one after another on one core (the per-shard work is pure Python, so
threads would only interleave there).  This module uses more cores:

1. **freeze** — each shard's built indexes are frozen into
   :class:`~repro.storage.shm.SharedMemoryPageFile` segments
   (:func:`freeze_shard`), one per tree, and the parent's own processor
   is reopened over the frozen storage so parent and workers share one
   copy of every page;
2. **manifest** — a :class:`ShardManifest` carries only segment names,
   page geometry, and the shard's :meth:`~repro.shard.partitioner.ShardSpec.geometry`
   across the process boundary — no datasets, no pickled trees;
3. **attach** — each worker process lazily attaches the segments named
   by the manifests it was initialized with (they never change: the
   frozen pages are read-only for the processor's lifetime), reopens
   the trees (:func:`repro.index.reopen.open_tree`), and caches one
   lightweight :class:`~repro.core.processor.QueryProcessor` per shard
   for reuse across queries (its node caches are worker-local, so hot
   queries stay hot per worker);
4. **observe** — the worker runs its part of the query under the
   parent's :class:`ObsContext` and records nothing in its own
   registry.  It ships back the :class:`~repro.core.results.QueryResult`
   (whose ``stats`` the parent merges, builds the shard's sub-plan from
   and records once for the whole query) and the span tuples and
   trace-store entries its span collector gathered.

Cold-cache semantics: ``ShardedQueryProcessor.clear_buffers`` cannot
reach worker-process caches directly, so it bumps a per-processor
*cache epoch* that travels with every task; a worker seeing a newer
epoch for a shard clears that shard's caches before executing.  This
keeps cold-run benchmarks honest in process mode.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

from repro.core.processor import QueryProcessor
from repro.core.results import QueryStats
from repro.errors import ReproError, ShardError
from repro.index.reopen import open_tree
from repro.obs import explain as _explain
from repro.obs import requests as _requests
from repro.obs import tracing as _tracing
from repro.storage.shm import SharedMemoryPageFile

#: Start methods the runner accepts (None = platform default).
START_METHODS = ("fork", "spawn", "forkserver")


@dataclass(frozen=True)
class TreeManifest:
    """One frozen tree: everything a worker needs to reopen it."""

    shm_name: str
    page_size: int
    page_count: int
    buffer_pages: int


@dataclass(frozen=True)
class ShardManifest:
    """One shard's transferable storage description (no live objects)."""

    shard_id: int
    bbox: tuple
    radius: float
    object_tree: TreeManifest
    feature_trees: tuple[TreeManifest, ...]


@dataclass(frozen=True)
class ObsContext:
    """The dispatching context's observability state, for one worker query.

    The picklable counterpart of :class:`repro.obs.tracing.TraceContext`:
    a collector cannot cross the process boundary, so the worker builds
    its own and ships what it gathered back.
    """

    trace_id: str
    #: Spans are wanted: they would be recorded here (tracing is on or
    #: a request collector is live).
    spans: bool
    #: The trace store is on: build the trace-store entries.
    records: bool

    @classmethod
    def capture(cls, trace_id: str) -> "ObsContext":
        return cls(
            trace_id=trace_id,
            spans=_tracing.armed(),
            records=_requests.enabled,
        )


def freeze_shard(
    spec_geometry: tuple,
    processor: QueryProcessor,
    buffer_pages: int,
) -> tuple[QueryProcessor, ShardManifest]:
    """Freeze a shard's indexes into shared memory.

    Returns a *replacement* parent-side processor whose trees read the
    frozen segments (the parent owns them and unlinks on close) plus the
    manifest workers attach by.  The original in-memory page files are
    released to the garbage collector — pages exist once, in the shared
    segments.
    """
    shard_id, bbox, radius = spec_geometry
    frozen_trees = []
    manifests = []
    for tree in processor.trees():
        shm_file = SharedMemoryPageFile.freeze(tree.pagefile)
        frozen_trees.append(open_tree(shm_file, buffer_pages))
        manifests.append(TreeManifest(
            shm_name=shm_file.name,
            page_size=shm_file.page_size,
            page_count=shm_file.page_count,
            buffer_pages=buffer_pages,
        ))
    manifest = ShardManifest(
        shard_id=shard_id,
        bbox=bbox,
        radius=radius,
        object_tree=manifests[0],
        feature_trees=tuple(manifests[1:]),
    )
    return QueryProcessor(frozen_trees[0], frozen_trees[1:]), manifest


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker-process state: manifests by shard id (fixed by
#: :func:`_worker_init`), cached processors, and the last cache epoch
#: each shard was cleared at.
_WORKER: dict = {"manifests": {}, "processors": {}, "epochs": {}}


def _worker_init(manifests: list[ShardManifest]) -> None:
    _WORKER["manifests"] = {m.shard_id: m for m in manifests}
    _WORKER["processors"] = {}
    _WORKER["epochs"] = {}


def _worker_processor(shard_id: int) -> QueryProcessor:
    processor = _WORKER["processors"].get(shard_id)
    if processor is None:
        manifest = _WORKER["manifests"].get(shard_id)
        if manifest is None:
            raise ShardError(
                shard_id, "worker has no manifest for this shard"
            )
        trees = [
            open_tree(
                SharedMemoryPageFile.attach(tm.shm_name), tm.buffer_pages
            )
            for tm in (manifest.object_tree, *manifest.feature_trees)
        ]
        processor = QueryProcessor(trees[0], trees[1:])
        _WORKER["processors"][shard_id] = processor
    return processor


def _run_shard_query(
    shard_id: int,
    epoch: int,
    query,
    algorithm: str,
    floor: float,
    obs: ObsContext,
    explain: bool,
) -> dict:
    """Execute one shard query in a worker process; returns plain data.

    Never raises: failures come back as an error payload (with the
    pickled exception when transferable) so the verdict and any query
    records survive the failure, exactly as they would in-process.

    The query runs under a worker-local span collector, so its spans and
    trace-store entries travel back in the payload (span tuples carry
    raw monotonic-clock stamps, valid in the parent as they are) for
    :func:`repro.obs.tracing.ingest` / :func:`repro.obs.requests.ingest`;
    retention is decided in the parent and the worker's own store stays
    empty.  ``explain`` makes the result's stats carry the plan detail
    (they cross the hop as part of the result).
    """
    _requests.configure(enabled_=obs.records)
    gathered = (
        _tracing.SpanCollector() if obs.spans or obs.records else None
    )
    t0 = time.perf_counter()
    error_payload = None
    result = None
    try:
        # Everything — attach included — stays inside the try: a raise
        # escaping this function would have to pickle through the pool's
        # result queue instead of the controlled payload below.
        processor = _worker_processor(shard_id)
        if _WORKER["epochs"].get(shard_id, -1) < epoch:
            processor.clear_buffers()
            _WORKER["epochs"][shard_id] = epoch
        with _tracing.trace_scope(obs.trace_id, gathered):
            result = processor.execute(
                query, algorithm, floor,
                QueryStats(detail=_explain.PlanDetail() if explain else None),
            )
    except Exception as exc:  # noqa: BLE001 — transferred to the parent
        try:
            pickled = pickle.dumps(exc)
        except Exception:
            pickled = None
        error_payload = {
            "type": type(exc).__name__,
            "message": str(exc),
            "is_repro": isinstance(exc, ReproError),
            "pickled": pickled,
        }
    elapsed_s = time.perf_counter() - t0
    payload = {
        "shard_id": shard_id,
        "elapsed_s": elapsed_s,
        "result": result,
        "error": error_payload,
        "records": gathered.records if gathered is not None else (),
        "spans": list(gathered.spans) if obs.spans else (),
        "pid": os.getpid(),
        "thread_names": (
            {t.ident: t.name for t in threading.enumerate()}
            if obs.spans
            else {}
        ),
    }
    return payload


def unpickle_error(error_payload: dict, shard_id: int) -> Exception:
    """Rehydrate a worker failure into the exception to raise.

    A pickled :class:`ReproError` is re-raised as itself (mirroring the
    serial-mode contract); anything else is wrapped in a
    :class:`ShardError` carrying the shard id and original rendering.
    """
    pickled = error_payload.get("pickled")
    if pickled is not None and error_payload.get("is_repro"):
        try:
            exc = pickle.loads(pickled)
            if isinstance(exc, ReproError):
                return exc
        except Exception:
            pass
    return ShardError(
        shard_id, f"{error_payload['type']}: {error_payload['message']}"
    )


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessShardRunner:
    """A persistent worker-process pool over frozen shard storage.

    Workers are initialized once with the shard manifests and cache
    per-shard processors across queries, so steady-state dispatch cost
    is one small pickle each way per shard query.
    """

    def __init__(
        self,
        manifests: list[ShardManifest],
        max_workers: int,
        start_method: str | None = None,
    ) -> None:
        if start_method is not None and start_method not in START_METHODS:
            raise ShardError(
                -1,
                f"unknown start method {start_method!r}; choose from "
                f"{START_METHODS}",
            )
        if max_workers < 1:
            raise ShardError(-1, f"need >= 1 worker, got {max_workers}")
        self.start_method = start_method
        self.max_workers = max_workers
        ctx = get_context(start_method) if start_method else get_context()
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(list(manifests),),
        )
        self._closed = False

    def submit(
        self,
        shard_id: int,
        epoch: int,
        query,
        algorithm: str,
        floor: float,
        obs: ObsContext,
        explain: bool,
    ) -> Future:
        """Dispatch one shard query; resolves to a worker payload dict."""
        if self._closed:
            raise ShardError(-1, "process runner is closed")
        return self._pool.submit(
            _run_shard_query,
            shard_id,
            epoch,
            query,
            algorithm,
            floor,
            obs,
            explain,
        )

    def close(self, wait: bool = True) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ProcessShardRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # safety net; close() is the real API
        try:
            self.close(wait=False)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
