"""Query results and the per-query accumulator.

Mirrors the paper's metrics (Section 8.1): execution time split into I/O
time (number of page reads x per-page cost) and CPU time, plus the
algorithm-specific counters the paper discusses (combinations examined,
Voronoi-cell cost for the NN variant).

:class:`QueryStats` is the *one* object the engine counts into — node
visits, prunes, pulls, rejected combinations, dropped objects, shard
verdicts, always.  The EXPLAIN plan, the metrics registry and the trace
store's per-query counters are views of it (:mod:`repro.obs.explain`),
so they cannot disagree about what the query did.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from repro.obs.explain import (
    MAX_CHUNKS,
    BoundSummary,
    FeatureSetDiag,
    PlanDetail,
    ShardDiag,
)
from repro.storage.pagefile import PageFile


@dataclass(frozen=True, slots=True)
class ResultItem:
    """One ranked data object."""

    oid: int
    score: float
    x: float
    y: float


@dataclass(slots=True)
class QueryStats:
    """Cost counters for a single query execution: an engine counts into
    a fresh one, or the one it is handed (``explain``'s carries ``detail``)."""

    wall_s: float = 0.0
    io_reads: int = 0
    buffer_hits: int = 0
    node_cache_hits: int = 0
    node_cache_misses: int = 0
    io_time_s: float = 0.0
    #: Combinations released (valid under Lemma 1) / rejected by the ``2r``
    #: rule / released but skipped by the influence bound (Algorithm 5).
    combinations: int = 0
    rejected_2r: int = 0
    retrievals_skipped: int = 0
    objects_scored: int = 0
    #: STDS: objects dropped by ``τ̂(p) < threshold``, per-object early
    #: terminations, chunks scanned and the k-th score after the last.
    objects_dropped: int = 0
    early_terminations: int = 0
    chunk_count: int = 0
    threshold_final: float = -math.inf
    voronoi_io_reads: int = 0
    voronoi_cpu_s: float = 0.0
    voronoi_io_time_s: float = 0.0
    voronoi_cells_computed: int = 0
    voronoi_cell_cache_hits: int = 0
    voronoi_empty_intersections: int = 0
    #: Per-feature-set counters, by ``set_id`` (see :meth:`feature_set`).
    feature_sets: list[FeatureSetDiag] = field(default_factory=list)
    #: Sharded engine: one verdict per shard, by ``shard_id``.
    shards: list[ShardDiag] = field(default_factory=list)
    #: Present when a plan was asked for: the length-dependent series.
    detail: PlanDetail | None = None
    #: Per-query trace id minted by the processor (see
    #: :mod:`repro.obs.tracing`): the join key across Chrome-trace spans,
    #: trace-store entries and exemplars.  Empty until the
    #: processor stamps it.
    trace_id: str = ""
    #: Per-phase wall seconds (span name -> total), populated when
    #: tracing is enabled (see :mod:`repro.obs.tracing`); empty otherwise.
    #: Phase names follow the span taxonomy of DESIGN.md §9.
    phase_times: dict[str, float] = field(default_factory=dict)

    def feature_set(self, set_id: int) -> FeatureSetDiag:
        """The record of feature set ``set_id``, created on first use."""
        for diag in self.feature_sets:
            if diag.set_id == set_id:
                return diag
        bounds = BoundSummary() if self.detail is not None else None
        diag = FeatureSetDiag(set_id, pruned_bounds=bounds)
        self.feature_sets.append(diag)
        self.feature_sets.sort(key=lambda d: d.set_id)
        return diag

    def chunk_scanned(self, chunk_id: int, size: int, threshold: float) -> None:
        """One STDS chunk folded; ``threshold`` is the k-th score now."""
        self.chunk_count += 1
        self.threshold_final = threshold
        if self.detail is not None and len(self.detail.chunks) < MAX_CHUNKS:
            self.detail.chunks.append((chunk_id, size, threshold))

    def merge(self, other: "QueryStats") -> None:
        """Fold another execution's counts in (a shard's, into the whole).

        Numeric fields sum, except ``threshold_final`` (the best k-th
        score any part reached); per-set records merge by set id; verdicts
        concatenate; ``trace_id`` and ``detail`` stay with their execution.
        """
        for f in fields(self):
            name = f.name
            if name == "threshold_final":
                self.threshold_final = max(self.threshold_final, other.threshold_final)
            elif f.type in ("int", "float"):
                setattr(self, name, getattr(self, name) + getattr(other, name))
        for diag in other.feature_sets:
            self.feature_set(diag.set_id).merge(diag)
        self.shards.extend(other.shards)
        for phase, seconds in other.phase_times.items():
            self.phase_times[phase] = (
                self.phase_times.get(phase, 0.0) + seconds
            )

    @property
    def features_pulled(self) -> int:
        """Feature objects pulled from the sorted streams, all sets."""
        return sum(d.features_pulled for d in self.feature_sets)

    @property
    def pull_rounds(self) -> int:
        """Pulling rounds after each set's seed pull (Definition 5)."""
        return sum(d.pull_rounds for d in self.feature_sets)

    @property
    def nodes_expanded(self) -> int:
        """Feature-index nodes visited, all sets."""
        return sum(d.nodes_visited for d in self.feature_sets)

    @property
    def heap_pops(self) -> int:
        """Heap pops of the STDS traversals (Algorithm 2 and its per-object
        variants); 0 for STPS, which does not count its own."""
        return sum(d.heap_pops for d in self.feature_sets)

    @property
    def cpu_time_s(self) -> float:
        """Wall time minus nothing — in a simulated-disk build, all wall
        time is CPU time; the I/O charge is additive on top."""
        return self.wall_s

    @property
    def total_time_s(self) -> float:
        """CPU time plus simulated I/O time (what the paper's bars show)."""
        return self.wall_s + self.io_time_s

    @property
    def node_cache_hit_rate(self) -> float:
        """Decoded-node cache hits / lookups; 0.0 when unused."""
        total = self.node_cache_hits + self.node_cache_misses
        return self.node_cache_hits / total if total else 0.0


@dataclass(slots=True)
class QueryResult:
    """Ranked items plus the cost of producing them."""

    items: list[ResultItem] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    #: The JSON of ``items`` and ``stats`` as a served 200 body carries
    #: them, encoded once on first use by :mod:`repro.serve.http`; every
    #: later request that serves this result splices it in.
    wire: str | None = field(default=None, repr=False, compare=False)

    @property
    def scores(self) -> list[float]:
        """Scores in rank order (the comparable part across algorithms)."""
        return [item.score for item in self.items]

    @property
    def oids(self) -> list[int]:
        return [item.oid for item in self.items]

    def __len__(self) -> int:
        return len(self.items)


class StatsTracker:
    """Accumulates I/O deltas across a set of page files during a query."""

    def __init__(self, pagefiles: Iterable[PageFile]) -> None:
        self.pagefiles = list(pagefiles)
        self._before = [pf.stats.snapshot() for pf in self.pagefiles]
        self._t0 = time.perf_counter()

    def finish(self, stats: QueryStats) -> QueryStats:
        """Fill ``stats`` with elapsed time and I/O deltas."""
        stats.wall_s = time.perf_counter() - self._t0
        for pf, before in zip(self.pagefiles, self._before):
            delta = pf.stats.delta_since(before)
            stats.io_reads += delta.reads
            stats.buffer_hits += delta.buffer_hits
            stats.node_cache_hits += delta.node_cache_hits
            stats.node_cache_misses += delta.node_cache_misses
            stats.io_time_s += delta.io_time_s
        return stats

    def io_snapshot(self) -> list:
        """Snapshot used to attribute a sub-phase (e.g. Voronoi) I/O."""
        return [pf.stats.snapshot() for pf in self.pagefiles]

    def io_since(self, snapshot: list) -> tuple[int, float]:
        """(reads, io_time_s) accumulated since ``snapshot``."""
        reads = 0
        io_time = 0.0
        for pf, before in zip(self.pagefiles, snapshot):
            delta = pf.stats.delta_since(before)
            reads += delta.reads
            io_time += delta.io_time_s
        return reads, io_time


def rank_items(
    candidates: Iterable[tuple[float, int, float, float]], k: int
) -> list[ResultItem]:
    """Top-k by (score desc, oid asc) from (score, oid, x, y) tuples."""
    ordered = sorted(candidates, key=lambda t: (-t[0], t[1]))
    return [ResultItem(oid, score, x, y) for score, oid, x, y in ordered[:k]]
