"""Unified query processor — the library's main entry point.

Couples one object R-tree with one feature index per feature set and
dispatches a :class:`~repro.core.query.PreferenceQuery` to the right
algorithm/variant implementation (the "unified framework" of Section 7).

Typical use::

    processor = QueryProcessor.build(objects, [restaurants, cafes])
    result = processor.query(
        PreferenceQuery.from_terms(
            k=10, radius=0.01, lam=0.5,
            keywords=[["italian", "pizza"], ["espresso", "muffins"]],
            feature_sets=[restaurants, cafes],
        )
    )
"""

from __future__ import annotations

import logging
import time
from collections.abc import Sequence

from repro.core.query import PreferenceQuery
from repro.core.results import QueryResult, QueryStats
from repro.core.stds import stds
from repro.core.stps import stps, stps_stream
from repro.errors import QueryError
from repro.index.feature_tree import FeatureTree
from repro.index.ir2 import IR2Tree
from repro.index.object_rtree import ObjectRTree
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.obs import explain as _explain
from repro.obs import metrics as _metrics
from repro.obs import requests as _requests
from repro.obs import tracing as _tracing

logger = logging.getLogger(__name__)

ALGORITHM_STPS = "stps"
ALGORITHM_STDS = "stds"

INDEX_CLASSES = {"srt": SRTIndex, "ir2": IR2Tree}


class QueryProcessor:
    """Runs preference queries over a fixed set of indexes."""

    def __init__(
        self,
        object_tree: ObjectRTree,
        feature_trees: Sequence[FeatureTree],
    ) -> None:
        if not feature_trees:
            raise QueryError("need at least one feature index")
        self.object_tree = object_tree
        self.feature_trees = list(feature_trees)

    @classmethod
    def build(
        cls,
        objects: ObjectDataset,
        feature_sets: Sequence[FeatureDataset],
        index: str = "srt",
        page_size: int = 4096,
        buffer_pages: int = 256,
        method: str = "bulk",
    ) -> "QueryProcessor":
        """Build all indexes from raw datasets.

        ``index`` selects the feature index: ``"srt"`` (the paper's
        SRT-index, default) or ``"ir2"`` (the modified IR²-tree
        baseline).
        """
        if index not in INDEX_CLASSES:
            raise QueryError(
                f"unknown index {index!r}; choose from {sorted(INDEX_CLASSES)}"
            )
        from repro.storage.pagefile import MemoryPageFile

        object_tree = ObjectRTree.build(
            objects,
            pagefile=MemoryPageFile(page_size),
            buffer_pages=buffer_pages,
            method="hilbert" if method == "bulk" else method,
        )
        tree_cls = INDEX_CLASSES[index]
        feature_trees = [
            tree_cls.build(
                fs,
                pagefile=MemoryPageFile(page_size),
                buffer_pages=buffer_pages,
                method=method if method in ("bulk", "insert") else "bulk",
            )
            for fs in feature_sets
        ]
        return cls(object_tree, feature_trees)

    def trees(self):
        """Every index this processor reads: object tree + feature trees.

        Duck-typed accessor shared with
        :class:`~repro.shard.ShardedQueryProcessor` so the executor can
        attribute I/O without knowing the processor flavour.
        """
        return [self.object_tree, *self.feature_trees]

    def query(
        self,
        query: PreferenceQuery,
        algorithm: str = ALGORITHM_STPS,
        floor: float = float("-inf"),
        stats: QueryStats | None = None,
    ) -> QueryResult:
        """Execute a query with the chosen algorithm.

        ``algorithm`` is ``"stps"`` (default) or ``"stds"``; the score
        variant comes from the query itself.

        ``floor`` is an externally known lower bound on the caller's
        merged k-th best score (the sharded engine's cross-shard
        threshold; see :mod:`repro.shard`).  Items scoring strictly below
        it may be omitted; items at or above it are always exact.  The
        default (``-inf``) disables the cut.

        Every call, failed ones too, is recorded once in the default
        metrics registry, derived from ``stats``
        (:func:`repro.obs.explain.record_query`).  When tracing is on
        (see :mod:`repro.obs.tracing`) the execution runs in a
        ``query.<algorithm>`` span; ``result.stats.phase_times`` then
        carries the per-phase breakdown.

        Each call runs under a *trace id* (a fresh one, or the ambient
        id when called inside an active trace scope) stamped onto
        ``result.stats.trace_id``, every trace span, any trace-store
        entry and the latency exemplar, so all diagnostics for one query
        join on one key.

        ``stats`` is the accumulator the engine counts into and returns
        as ``result.stats`` (a fresh :class:`QueryStats` when None);
        :meth:`explain` hands in one whose ``detail`` also keeps the τ
        trajectory, the chunk list and the pruned-bound summaries.
        """
        stats = stats or QueryStats()
        t0 = time.perf_counter()
        ctx = _tracing.capture() or _tracing.TraceContext(
            _tracing.new_trace_id()
        )
        with _tracing.resume(ctx):
            try:
                return self.execute(query, algorithm, floor, stats)
            finally:
                _explain.record_query(
                    stats, algorithm, query.variant.value,
                    time.perf_counter() - t0,
                )

    def execute(
        self,
        query: PreferenceQuery,
        algorithm: str,
        floor: float,
        stats: QueryStats,
    ) -> QueryResult:
        """:meth:`query` without the registry record, under the ambient trace.

        The ``query.<algorithm>`` span, the dispatch, the trace-id stamp
        and the trace-store entry.  This is one shard's part of a sharded
        query, whose registry record is the whole query's.
        """
        t0 = time.perf_counter()
        trace_id = _tracing.current_trace_id()
        try:
            with _tracing.span(
                f"query.{algorithm}",
                variant=query.variant.value,
                k=query.k,
                c=query.c,
            ):
                result = self._dispatch(query, algorithm, floor, stats)
        except Exception as exc:
            if _requests.enabled:
                _requests.record(
                    trace_id, duration_s=time.perf_counter() - t0,
                    algorithm=algorithm, query=query, error=exc,
                )
            raise
        result.stats.trace_id = trace_id
        if _requests.enabled:
            _requests.record(
                trace_id, duration_s=time.perf_counter() - t0,
                algorithm=algorithm, query=query, stats=result.stats,
            )
        return result

    def explain(
        self,
        query: PreferenceQuery,
        algorithm: str = ALGORITHM_STPS,
        floor: float = float("-inf"),
    ) -> "_explain.ExplainReport":
        """EXPLAIN ANALYZE: execute the query and return plan + result.

        The returned :class:`~repro.obs.explain.ExplainReport` carries a
        :class:`~repro.obs.explain.QueryPlan` — per-feature-set node
        accesses vs. prunes with the ``ŝ(e)`` bound values, combinations
        assembled vs. rejected by Lemma 1, the τ threshold trajectory
        per pulling round — and the ordinary :class:`QueryResult` (the
        query really executes; items are identical to :meth:`query`).
        Render with ``report.plan.render()`` or ``report.plan.to_json()``.
        """
        result = self.query(
            query, algorithm=algorithm, floor=floor,
            stats=QueryStats(detail=_explain.PlanDetail()),
        )
        plan = _explain.QueryPlan.from_stats(query, algorithm, result.stats)
        return _explain.ExplainReport(plan=plan, result=result)

    def _dispatch(
        self,
        query: PreferenceQuery,
        algorithm: str,
        floor: float,
        stats: QueryStats,
    ) -> QueryResult:
        """Route to the algorithm/variant implementation (uninstrumented)."""
        if algorithm not in (ALGORITHM_STPS, ALGORITHM_STDS):
            raise QueryError(
                f"unknown algorithm {algorithm!r}; choose 'stps' or 'stds'"
            )
        if query.k == 0:
            # k=0 asks for nothing: the empty result is exact and
            # (vacuously) tie-complete for every engine.  Short-circuit
            # here so no engine has to reason about an empty top-k heap.
            return QueryResult([], stats)
        if algorithm == ALGORITHM_STDS:
            return stds(
                self.object_tree,
                self.feature_trees,
                query,
                floor=floor,
                stats=stats,
            )
        return stps(
            self.object_tree, self.feature_trees, query,
            floor=floor, stats=stats,
        )

    def query_many(
        self,
        queries,
        algorithm: str = ALGORITHM_STPS,
        dedup: bool = True,
        on_error: str = "raise",
    ) -> list[QueryResult]:
        """Execute many queries; results in input order.

        Convenience wrapper around
        :class:`~repro.core.executor.QueryExecutor` for one-shot
        batches.  Each result's items are identical to a :meth:`query`
        call for the same query.  ``dedup`` (default on) executes
        duplicate queries once and shares the result object.
        ``on_error="return"`` isolates failing queries as ``None``
        positions instead of raising (see
        :meth:`QueryExecutor.query_many`).
        """
        from repro.core.executor import QueryExecutor

        with QueryExecutor(self) as executor:
            return executor.query_many(
                queries,
                algorithm=algorithm,
                dedup=dedup,
                on_error=on_error,
            )

    def stream(self, query: PreferenceQuery):
        """Yield results in rank order, lazily (range / NN variants).

        Unlike :meth:`query`, iteration is unbounded by ``k``: keep
        consuming for "next page" semantics.  The ranks, ties included,
        are :meth:`query`'s (:func:`repro.core.stps.stps_stream`).
        """
        return stps_stream(self.object_tree, self.feature_trees, query)

    def clear_buffers(self) -> dict[str, int]:
        """Drop all cached nodes (cold-cache runs).

        Returns what was dropped: ``{"nodes": ...}`` summed over the
        object tree and every feature tree.
        """
        dropped = {
            "nodes": sum(tree.clear_cache()["nodes"] for tree in self.trees())
        }
        logger.debug("clear_buffers dropped %d cached nodes", dropped["nodes"])
        return dropped

    def reset_stats(self, metrics: bool = True) -> None:
        """Zero every per-index counter so the next run starts cold.

        Resets the page-file I/O counters *and* the decoded-node-cache
        hit/miss counters of every tree (the latter were previously left
        behind, so "cold" runs started with stale hit rates).  With
        ``metrics`` (default), the process-wide metrics registry is also
        zeroed — registrations survive, series go to zero.
        """
        for tree in (self.object_tree, *self.feature_trees):
            tree.stats.reset()
            tree.node_cache.reset_counters()
        if metrics:
            _metrics.registry().reset()
