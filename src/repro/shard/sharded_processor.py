"""Sharded query engine: partition, fan out, merge.

A :class:`ShardedQueryProcessor` owns one
:class:`~repro.core.processor.QueryProcessor` per spatial shard (built
from a :func:`~repro.shard.partitioner.partition` of the datasets) and
answers exactly the same queries as an unsharded processor:

1. **bound** — each shard advertises a per-query upper bound
   ``Σ_i max ŝ_i(shard)`` computed from its feature-tree roots (one node
   read per set, no traversal);
2. **fan out** — shards run in descending bound order (``shard.fanout``
   span; one after another on the caller's thread, or on worker
   processes), each executing the ordinary per-shard algorithm with the
   *merged k-th score so far* as a floor, so later shards terminate as
   soon as they fall out of contention;
3. **prune** — a shard whose bound is strictly below the merged k-th
   score is skipped entirely (``repro_shard_queries{outcome="pruned"}``);
4. **merge** — per-shard top-k heaps are merged with the library-wide
   deterministic tie-break (score desc, oid asc; ``shard.merge`` span).

Exactness argument (DESIGN.md §10): objects are partitioned, features
are halo-replicated, so every object's score is computed by exactly one
shard from a feature view sufficient for the supported query shape; the
floor/prune cuts only ever drop items *strictly* below the final global
k-th score.  Results — ids and scores — are therefore identical to the
unsharded processor for every supported query, independent of shard
count, worker count, and pruning outcomes.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, wait
from threading import Lock

import heapq
import os

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, rank_items
from repro.core.stream import FeatureStream
from repro.errors import QueryError, ReproError, ShardError
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.obs import explain as _explain
from repro.obs.explain import ShardDiag
from repro.obs import metrics as _metrics
from repro.obs import requests as _requests
from repro.obs import tracing as _tracing
from repro.shard.partitioner import ShardSpec, partition
from repro.shard.process_runner import (
    ObsContext,
    ProcessShardRunner,
    ShardManifest,
    freeze_shard,
    unpickle_error,
)
from repro.storage.shm import SharedMemoryPageFile

#: Fan-out execution modes: a loop on the caller's thread (default, no
#: setup cost, every shard sees the floor left by all earlier ones) or
#: worker processes over shared-memory page storage (multi-core
#: parallelism for the pure-Python per-shard work).
FANOUT_MODES = ("serial", "processes")

#: Metric families owned by this module — the scope of
#: :meth:`ShardedQueryProcessor.reset_stats`'s registry reset.
SHARD_METRIC_FAMILIES = ("repro_shard_queries",)


def shard_queries_metric() -> "_metrics.MetricFamily":
    """Per-shard execution outcomes (``executed``/``pruned``/``failed``).

    Resolved against the *current* default registry on every call, like
    every family :func:`repro.obs.explain.record_query` records into.
    """
    return _explain.counter_family("repro_shard_queries")


class _Fanout:
    """One query's cross-shard state: floor, verdicts, shard results.

    The floor is the merged k-th best score once at least ``k`` items
    have come back (``-inf`` before that), never below the caller's
    external floor — a valid lower bound on the final global k-th score
    because the items seen are a subset of all candidates.
    """

    __slots__ = ("_k", "_heap", "_external", "_verdicts", "results")

    def __init__(self, k, external_floor, verdicts) -> None:
        self._k = k
        self._heap: list[float] = []  # min-heap of the best k scores
        self._external = external_floor
        self._verdicts = verdicts
        self.results: list[QueryResult] = []

    def admit(self, shard_id: int, bound: float) -> float | None:
        """The floor to run the shard under; None once recorded as pruned.

        Pruned means no object in the shard can reach the merged top-k.
        Ties are not pruned: ``bound == floor`` still executes, so oid
        tie-breaks see every candidate.
        """
        floor = self._external
        if len(self._heap) == self._k and self._heap[0] > floor:
            floor = self._heap[0]
        if math.isfinite(floor) and bound < floor:
            self._verdicts.append(ShardDiag(shard_id, "pruned", bound, floor))
            return None
        return floor

    def failed(self, shard_id, bound, floor, elapsed_s, error: str) -> None:
        self._verdicts.append(ShardDiag(
            shard_id, "failed", bound, floor, elapsed_s=elapsed_s, error=error
        ))

    def executed(self, shard_id, bound, floor, elapsed_s, result) -> None:
        """Keep the result; the shard's scores raise the floor."""
        self._verdicts.append(ShardDiag(
            shard_id, "executed", bound, floor, elapsed_s=elapsed_s,
            stats=result.stats,
        ))
        self.results.append(result)
        heap = self._heap
        for item in result.items:
            if len(heap) < self._k:
                heapq.heappush(heap, item.score)
            elif item.score > heap[0]:
                heapq.heapreplace(heap, item.score)


class _Shard:
    """A spec plus the per-shard query processor built from it."""

    __slots__ = ("spec", "processor")

    def __init__(self, spec: ShardSpec, processor: QueryProcessor) -> None:
        self.spec = spec
        self.processor = processor

    def bound(self, query: PreferenceQuery) -> float:
        """``Σ_i max ŝ_i`` over this shard's feature roots.

        ``ŝ(e)`` upper-bounds every descendant feature's preference score
        (Section 4.2), a feature's preference score upper-bounds its
        contribution under *every* variant (range/nearest use it
        directly; influence multiplies by ``2^{-d/r} <= 1``), and
        ``τ(p) = Σ_i τ_i(p)`` — so no object in this shard can beat the
        sum of the per-set root maxima: each set's sorted stream, opened
        on its root (one cached node read), bounds its next feature by
        exactly that maximum.
        """
        return sum(
            FeatureStream(tree, mask, query.lam, emit_virtual=False).next_bound
            or 0.0
            for tree, mask in zip(
                self.processor.feature_trees, query.keyword_masks
            )
        )


class ShardedQueryProcessor:
    """Drop-in :class:`QueryProcessor` replacement over spatial shards.

    Build it from raw datasets::

        sharded = ShardedQueryProcessor.build(
            objects, feature_sets, shards=4, radius=0.02
        )
        result = sharded.query(query)            # == unsharded result

    ``radius`` is the largest query radius the halo supports; build with
    ``replication="full"`` to serve the influence / nearest variants
    (whose scores have unbounded spatial support).  The processor is
    duck-type compatible with :class:`~repro.core.executor.QueryExecutor`
    (``query``/``query_many``/``trees``/``clear_buffers``/``reset_stats``),
    so batch routing reuses the executor machinery unchanged.

    ``fanout`` selects where shards run: ``"serial"`` (default) visits
    them one after another on the caller's thread; ``"processes"`` runs
    them on a :class:`~repro.shard.process_runner.ProcessShardRunner`
    pool attached to shared-memory page storage — same results, same
    metrics/EXPLAIN/trace-store behavior, multi-core scaling.  Build with
    ``fanout="processes"`` (the indexes must be frozen into shared
    memory at build time).  ``max_workers`` (pool size, default
    ``min(shards, cpus)``) and ``start_method`` (multiprocessing start
    method, ``None`` = platform default) apply to process mode only.
    """

    def __init__(
        self,
        shards: Sequence[_Shard],
        radius: float,
        max_workers: int | None = None,
        fanout: str = "serial",
        start_method: str | None = None,
        manifests: Sequence[ShardManifest] | None = None,
    ) -> None:
        if not shards:
            raise ShardError(-1, "need at least one shard")
        if fanout not in FANOUT_MODES:
            raise ShardError(
                -1, f"unknown fanout {fanout!r}; choose from {FANOUT_MODES}"
            )
        if fanout == "processes" and manifests is None:
            raise ShardError(
                -1,
                "fanout='processes' needs shared-memory manifests; build "
                "via ShardedQueryProcessor.build(..., fanout='processes')",
            )
        self.shards = list(shards)
        self.radius = radius
        self.max_workers = max_workers
        self.fanout = fanout
        self.start_method = start_method
        self._manifests = (
            tuple(manifests) if manifests is not None else None
        )
        self._process_runner: ProcessShardRunner | None = None
        self._pool_lock = Lock()
        self._closed = False
        #: Cache epoch forwarded with every process-mode task; bumped by
        #: :meth:`clear_buffers` so worker-side caches go cold too.
        self._epoch = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        objects: ObjectDataset,
        feature_sets: Sequence[FeatureDataset],
        shards: int = 4,
        radius: float = 0.05,
        method: str = "grid",
        replication: str = "halo",
        index: str = "srt",
        page_size: int = 4096,
        buffer_pages: int = 256,
        build_method: str = "bulk",
        max_workers: int | None = None,
        fanout: str = "serial",
        start_method: str | None = None,
    ) -> "ShardedQueryProcessor":
        """Partition the datasets and build one processor per shard.

        With ``fanout="processes"`` each shard's freshly built indexes
        are frozen into shared-memory segments
        (:func:`~repro.shard.process_runner.freeze_shard`): the parent's
        own per-shard processors are reopened over the frozen pages (it
        owns the segments and unlinks them on :meth:`close`), and the
        manifests let worker processes attach the same pages read-only —
        one physical copy, zero pickling of trees.  Nothing writes the
        frozen pages afterwards: the partition is read-only.
        """
        specs = partition(
            objects,
            feature_sets,
            shards,
            radius,
            method=method,
            replication=replication,
        )
        built = [
            _Shard(
                spec,
                QueryProcessor.build(
                    spec.objects,
                    spec.feature_sets,
                    index=index,
                    page_size=page_size,
                    buffer_pages=buffer_pages,
                    method=build_method,
                ),
            )
            for spec in specs
        ]
        radius = min(spec.radius for spec in specs)
        manifests = None
        if fanout == "processes":
            manifests = []
            for shard in built:
                frozen, manifest = freeze_shard(
                    shard.spec.geometry(), shard.processor, buffer_pages
                )
                shard.processor = frozen
                manifests.append(manifest)
        return cls(
            built,
            radius,
            max_workers=max_workers,
            fanout=fanout,
            start_method=start_method,
            manifests=manifests,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def specs(self) -> list[ShardSpec]:
        return [s.spec for s in self.shards]

    def describe(self) -> dict:
        """JSON-friendly partition summary."""
        return {
            "shards": self.shard_count,
            "radius": None if math.isinf(self.radius) else self.radius,
            "replication": "full" if math.isinf(self.radius) else "halo",
            "fanout": self.fanout,
            "layout": [s.spec.describe() for s in self.shards],
        }

    def close(self) -> None:
        """Subsequent queries raise.

        In process mode this also terminates the worker pool and
        unlinks the shared-memory segments (the parent owns them), so
        nothing is left behind in ``/dev/shm``.
        """
        self._teardown(wait=True)

    def _teardown(self, wait: bool) -> None:
        self._closed = True
        with self._pool_lock:
            runner, self._process_runner = self._process_runner, None
        if runner is not None:
            runner.close(wait=wait)
        # Unlink owned shared-memory segments last: workers detach when
        # their processes exit above.
        for shard in self.shards:
            for tree in shard.processor.trees():
                if isinstance(tree.pagefile, SharedMemoryPageFile):
                    tree.pagefile.close()

    def __del__(self) -> None:
        # Safety net only — close() is the API.  Never raises, never
        # blocks on worker exit during interpreter teardown.
        try:
            if not self._closed:
                self._teardown(wait=False)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def __enter__(self) -> "ShardedQueryProcessor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def trees(self):
        """Every index of every shard (executor I/O attribution)."""
        out = []
        for shard in self.shards:
            out.extend(shard.processor.trees())
        return out

    def clear_buffers(self) -> dict[str, int]:
        """Drop cached nodes in every shard (cold-cache runs).

        Worker-process caches cannot be reached synchronously, so the
        cache *epoch* is bumped instead: every process-mode task carries
        the current epoch and a worker holding a stale one clears that
        shard's caches before executing.  Cold-run benchmarks therefore
        stay cold in both fan-out modes.
        """
        self._epoch += 1
        return {
            "nodes": sum(
                shard.processor.clear_buffers()["nodes"] for shard in self.shards
            )
        }

    def reset_stats(self, metrics: bool = True) -> None:
        """Zero per-index counters in every shard.

        With ``metrics=True`` also zero the registry families this module
        owns (``SHARD_METRIC_FAMILIES``) — and only those: a sharded
        processor often coexists with an unsharded one (differential
        harness, benchmarks), and wiping the whole registry here would
        silently destroy the other engine's counters mid-comparison.
        Callers wanting a full wipe use ``metrics.registry().reset()``.
        """
        for shard in self.shards:
            shard.processor.reset_stats(metrics=False)
        if metrics:
            _metrics.registry().reset(names=SHARD_METRIC_FAMILIES)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def query(
        self,
        query: PreferenceQuery,
        algorithm: str = "stps",
        floor: float = float("-inf"),
        stats: QueryStats | None = None,
    ) -> QueryResult:
        """Execute one query across all shards; results match unsharded.

        ``floor`` composes with the internal cross-shard threshold (the
        larger of the two wins), so a sharded processor can itself sit
        behind another merger.  ``stats`` is the accumulator to count
        into (a fresh one when None): every shard's verdict with its
        bound and floor, and the executed shards' own stats merged in.
        The registry records the whole query once, from those stats,
        failed ones too; the shards' parts record nothing.
        """
        if self._closed:
            raise ShardError(-1, "sharded processor is closed")
        stats = stats or QueryStats()
        t0 = time.perf_counter()
        ctx = _tracing.capture() or _tracing.TraceContext(
            _tracing.new_trace_id()
        )
        with _tracing.resume(ctx):
            try:
                return self._fan_out(query, algorithm, floor, stats, t0)
            finally:
                # The query's one registry record: over the merged stats,
                # or over the verdicts reached before a failure.
                _explain.record_query(
                    stats, algorithm, query.variant.value,
                    time.perf_counter() - t0,
                )

    def _fan_out(
        self, query, algorithm, floor, stats, t0,
    ) -> QueryResult:
        """Bound, fan out and merge, under the query's trace."""
        self._check_supported(query)
        trace_id = stats.trace_id = _tracing.current_trace_id()
        if query.k == 0:
            # Nothing to fan out for: k=0's empty answer is exact and
            # tie-complete regardless of shard layout or fanout mode
            # (and a 0-item heap has no meaningful floor).
            return QueryResult([], stats)
        rec = _tracing.recorder()
        fan = _Fanout(query.k, floor, stats.shards)
        run = self._run_serial
        if self.fanout == "processes":
            run = self._run_processes
        ctx = _tracing.capture()
        parts = ()
        if _requests.enabled and ctx.collector is None:
            # A bare query: its shards' entries gather here and ride on
            # its own.  Borrowed, not a trace_scope: spans stay unarmed.
            ctx = _tracing.TraceContext(trace_id, _tracing.SpanCollector())
            parts = ctx.collector.records
        try:
            with _tracing.resume(ctx), rec.span(
                "shard.fanout", shards=self.shard_count
            ):
                ordered = sorted(
                    ((shard.bound(query), i) for i, shard in
                     enumerate(self.shards)),
                    key=lambda pair: (-pair[0], pair[1]),
                )
                run(
                    ordered, query, algorithm, fan,
                    stats.detail is not None,
                )
        except Exception as exc:
            if _requests.enabled:
                _requests.record(
                    trace_id, duration_s=time.perf_counter() - t0,
                    algorithm=f"sharded/{algorithm}", query=query,
                    records=parts, stats=stats, error=exc,
                )
            raise

        with rec.span("shard.merge"):
            candidates = [
                (item.score, item.oid, item.x, item.y)
                for result in fan.results
                for item in result.items
            ]
            items = rank_items(candidates, query.k)

        # Verdicts land in decision order; fold them in by shard id.
        stats.shards.sort(key=lambda verdict: verdict.shard_id)
        for verdict in list(stats.shards):
            if verdict.stats is not None:
                stats.merge(verdict.stats)
        stats.wall_s = time.perf_counter() - t0
        for phase, seconds in rec.totals().items():
            stats.phase_times[phase] = (
                stats.phase_times.get(phase, 0.0) + seconds
            )
        if _requests.enabled:
            _requests.record(
                trace_id, duration_s=stats.wall_s,
                algorithm=f"sharded/{algorithm}", query=query,
                records=parts, stats=stats,
            )
        return QueryResult(items, stats)

    def explain(
        self,
        query: PreferenceQuery,
        algorithm: str = "stps",
        floor: float = float("-inf"),
    ) -> "_explain.ExplainReport":
        """Run the query with diagnostics on; return plan + result.

        The plan's shard section lists every shard's verdict, bound, and
        floor at decision time; executed shards embed their own sub-plan.
        """
        result = self.query(
            query, algorithm=algorithm, floor=floor,
            stats=QueryStats(detail=_explain.PlanDetail()),
        )
        plan = _explain.QueryPlan.from_stats(
            query, f"sharded/{algorithm}", result.stats
        )
        return _explain.ExplainReport(plan=plan, result=result)

    def query_many(
        self,
        queries,
        algorithm: str = "stps",
        dedup: bool = True,
        on_error: str = "raise",
    ) -> list[QueryResult]:
        """Batch execution through the shared executor machinery.

        Each entry runs :meth:`query` (shard fan-out included) through a
        :class:`~repro.core.executor.QueryExecutor`, whose dedup/failure
        handling applies unchanged — with ``on_error="return"``, a
        failing query (e.g. a :class:`~repro.errors.ShardError` from one
        shard) yields ``None`` at its position without touching the rest
        of the batch.
        """
        from repro.core.executor import QueryExecutor

        with QueryExecutor(self) as executor:
            return executor.query_many(
                queries,
                algorithm=algorithm,
                dedup=dedup,
                on_error=on_error,
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_supported(self, query: PreferenceQuery) -> None:
        n_sets = len(self.shards[0].processor.feature_trees)
        if query.c != n_sets:
            raise QueryError(
                f"query addresses {query.c} feature sets, processor has "
                f"{n_sets}"
            )
        if math.isinf(self.radius):
            return  # full replication serves every variant and radius
        if query.variant is not Variant.RANGE:
            raise QueryError(
                f"halo-replicated shards only serve the range variant "
                f"({query.variant.value} scores have unbounded spatial "
                "support); rebuild with replication='full'"
            )
        if query.radius > self.radius:
            raise QueryError(
                f"query radius {query.radius} exceeds the shard halo "
                f"radius {self.radius}; rebuild the partition with a "
                "larger radius"
            )

    def _run_serial(
        self, ordered, query, algorithm, fan, explain,
    ) -> None:
        """Serial fan-out: shards one after another, best bound first.

        Each shard runs under the floor left by *all* earlier shards.  A
        failing shard ends the fan-out: later shards get no verdict.
        """
        for bound, idx in ordered:
            shard = self.shards[idx]
            shard_id = shard.spec.shard_id
            floor = fan.admit(shard_id, bound)
            if floor is None:
                continue
            shard_t0 = time.perf_counter()
            try:
                with _tracing.span(
                    "shard.query", cat="phase", shard=shard_id, bound=bound
                ):
                    result = shard.processor.execute(
                        query, algorithm, floor,
                        QueryStats(
                            detail=_explain.PlanDetail() if explain else None
                        ),
                    )
            except Exception as exc:  # noqa: BLE001 — wrapped with context
                text = f"{type(exc).__name__}: {exc}"
                fan.failed(
                    shard_id, bound, floor, time.perf_counter() - shard_t0,
                    text,
                )
                if isinstance(exc, ReproError):
                    raise
                raise ShardError(shard_id, text) from exc
            fan.executed(
                shard_id, bound, floor, time.perf_counter() - shard_t0, result
            )

    def _run_processes(
        self, ordered, query, algorithm, fan, explain,
    ) -> None:
        """Process-mode fan-out: throttled dispatch over the worker pool.

        Shards are dispatched in descending bound order with at most
        ``workers`` in flight; each dispatch re-reads the merged floor,
        so shards falling out of contention while earlier ones run are
        pruned without ever crossing the process boundary.  Completed
        payloads are folded back in completion order: spans and query
        records into the dispatching trace context, verdicts (with the
        worker's stats) into ``fan`` — the observable behavior matches
        serial mode exactly.
        """
        obs = ObsContext.capture(_tracing.current_trace_id())
        runner = self._ensure_process_runner()
        workers = min(runner.max_workers, len(ordered))
        pending = list(ordered)  # (bound, idx), bound descending
        in_flight: dict = {}
        failure: Exception | None = None

        def dispatch_next() -> bool:
            while pending:
                bound, idx = pending.pop(0)
                shard_id = self.shards[idx].spec.shard_id
                floor = fan.admit(shard_id, bound)
                if floor is None:
                    continue
                future = runner.submit(
                    shard_id, self._epoch, query, algorithm, floor, obs,
                    explain,
                )
                in_flight[future] = (bound, shard_id, floor)
                return True
            return False

        for _ in range(workers):
            if not dispatch_next():
                break
        while in_flight:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                bound, shard_id, floor = in_flight.pop(future)
                payload = future.result()
                # Fold observability back in even for failed shards —
                # the worker did the work; the trace must show it.
                _requests.ingest(payload["records"], shard_id=shard_id)
                _tracing.ingest(
                    payload["spans"], payload["pid"],
                    payload["thread_names"],
                )
                error = payload["error"]
                if error is not None:
                    fan.failed(
                        shard_id, bound, floor, payload["elapsed_s"],
                        f"{error['type']}: {error['message']}",
                    )
                    if failure is None:
                        failure = unpickle_error(error, shard_id)
                    continue
                fan.executed(
                    shard_id, bound, floor, payload["elapsed_s"],
                    payload["result"],
                )
            if failure is None:
                while len(in_flight) < workers and dispatch_next():
                    pass
            # On failure: stop dispatching, drain what is in flight so
            # their verdicts and query records land, then raise.
        if failure is not None:
            raise failure

    def _ensure_process_runner(self) -> ProcessShardRunner:
        with self._pool_lock:
            if self._closed:
                raise ShardError(-1, "sharded processor is closed")
            if self._process_runner is None:
                workers = self.max_workers
                if workers is None:
                    workers = min(self.shard_count, os.cpu_count() or 1)
                self._process_runner = ProcessShardRunner(
                    self._manifests,
                    max_workers=max(1, workers),
                    start_method=self.start_method,
                )
            return self._process_runner
