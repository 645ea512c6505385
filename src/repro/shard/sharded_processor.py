"""Sharded query engine: partition, fan out, merge.

A :class:`ShardedQueryProcessor` owns one
:class:`~repro.core.processor.QueryProcessor` per spatial shard (built
from a :func:`~repro.shard.partitioner.partition` of the datasets) and
answers exactly the same queries as an unsharded processor:

1. **bound** — each shard advertises a per-query upper bound
   ``Σ_i max ŝ_i(shard)`` computed from its feature-tree roots (one node
   read per set, no traversal);
2. **fan out** — shards run in descending bound order (``shard.fanout``
   span; one after another on the caller's thread), each executing the
   ordinary per-shard algorithm with the
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
count and pruning outcomes.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Sequence

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
    so batch routing reuses the executor machinery unchanged.  Shards
    run one after another on the caller's thread.
    """

    def __init__(self, shards: Sequence[_Shard], radius: float) -> None:
        if not shards:
            raise ShardError(-1, "need at least one shard")
        self.shards = list(shards)
        self.radius = radius
        self._closed = False

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
    ) -> "ShardedQueryProcessor":
        """Partition the datasets and build one processor per shard.

        Nothing writes the shards' indexes afterwards: the partition is
        read-only.
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
        return cls(built, min(spec.radius for spec in specs))

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
            "layout": [s.spec.describe() for s in self.shards],
        }

    def close(self) -> None:
        """Subsequent queries raise."""
        self._closed = True

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
        """Drop cached nodes in every shard (cold-cache runs)."""
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
            # tie-complete regardless of shard layout (and a 0-item heap
            # has no meaningful floor).
            return QueryResult([], stats)
        rec = _tracing.recorder()
        fan = _Fanout(query.k, floor, stats.shards)
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
                self._run_serial(
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
                        shard_id,
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
