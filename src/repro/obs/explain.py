"""EXPLAIN/ANALYZE query plans: why a query was fast or slow.

The paper's algorithms live or die on pruning effectiveness — STDS's
early-termination threshold ``τ̂(p)`` (Section 5, Algorithms 1-2), STPS's
valid-combination assembly under Lemma 1 and the prioritized pulling
strategy (Section 6, Algorithms 3-4).  The metrics registry reports *how
long* phases took; this module reports *why*: per-feature-set node
accesses vs. prunes with the ``ŝ(e)`` bound values, combinations
assembled vs. rejected by Lemma 1, the threshold trajectory per pulling
round, and — for the sharded engine — per-shard fan-out verdicts.

A :class:`DiagnosticsCollector` is threaded alongside the existing
``PhaseRecorder`` through the query stack (``QueryProcessor.query``
accepts ``collector=``); when absent, hot paths see the shared
:data:`NULL_COLLECTOR` (``active`` is False) and pay one attribute check
per instrumentation point — the ``explain=False`` overhead budget is
<5% on the smoke bench.

The result is a :class:`QueryPlan` with a JSON renderer
(:meth:`QueryPlan.to_dict` / :meth:`QueryPlan.to_json`) and a
human-readable table renderer (:meth:`QueryPlan.render`).  Plan counts
reconcile *exactly* with the metrics-registry counter deltas
(``repro_combinations_total``, ``repro_features_pulled_total``,
``repro_objects_scored_total``, ``repro_shard_queries``) — enforced by
``tests/differential/test_plan_reconciliation.py`` for every engine
variant.

Typical use::

    report = processor.explain(query, algorithm="stps")
    print(report.plan.render())          # human table
    report.plan.to_json()                # machine-readable
    report.result                        # the ordinary QueryResult

or from the command line::

    python -m repro.obs explain --algorithm stds --k 10
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field

#: Version of the plan JSON schema (bump on breaking field changes).
PLAN_SCHEMA_VERSION = 1

#: Caps keeping a plan small no matter how pathological the query is.
MAX_TRAJECTORY = 512
MAX_CHUNKS = 256
MAX_BOUND_SAMPLES = 8


class BoundSummary:
    """Running summary of a stream of bound values (``ŝ(e)``).

    Keeps count, min, max and the first :data:`MAX_BOUND_SAMPLES` values —
    enough to see *what* the pruning threshold was cutting against
    without storing one float per pruned node.
    """

    __slots__ = ("count", "min", "max", "sample")

    def __init__(self) -> None:
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.sample: list[float] = []

    def add(self, value: float) -> None:
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.sample) < MAX_BOUND_SAMPLES:
            self.sample.append(value)

    def merge(self, other: "BoundSummary") -> None:
        if other.count == 0:
            return
        self.count += other.count
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for value in other.sample:
            if len(self.sample) >= MAX_BOUND_SAMPLES:
                break
            self.sample.append(value)

    def to_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "sample": list(self.sample),
        }


@dataclass(slots=True)
class FeatureSetDiag:
    """Per-feature-set traversal anatomy (Algorithm 2 / the streams)."""

    set_id: int
    #: Index nodes expanded (read + children pushed) for this set.
    nodes_visited: int = 0
    #: Internal entries discarded without expansion (text-irrelevant at
    #: push time, or bound-pruned at pop time — see ``pruned_bounds``).
    nodes_pruned: int = 0
    #: Leaf entries discarded (text-irrelevant or out of range).
    entries_pruned: int = 0
    #: ``ŝ(e)`` values of entries pruned *by bound* (the batched STDS
    #: expansion rule; push-time text prunes carry no bound).
    pruned_bounds: BoundSummary = field(default_factory=BoundSummary)
    #: Feature objects pulled from this set's sorted stream (STPS).
    #: Reconciles with ``repro_features_pulled_total{feature_set=...}``.
    features_pulled: int = 0
    #: Pulling rounds charged to this set (Definition 5 decisions).
    pull_rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "set_id": self.set_id,
            "nodes_visited": self.nodes_visited,
            "nodes_pruned": self.nodes_pruned,
            "entries_pruned": self.entries_pruned,
            "pruned_bounds": self.pruned_bounds.to_dict(),
            "features_pulled": self.features_pulled,
            "pull_rounds": self.pull_rounds,
        }


@dataclass(slots=True)
class CombinationDiag:
    """Algorithm 3-4 anatomy: the valid-combination stream."""

    #: Combinations released to the caller (valid under Lemma 1).
    #: Reconciles with ``repro_combinations_total``.
    released: int = 0
    #: Combinations assembled but rejected by the ``2r`` rule (Lemma 1).
    rejected_2r: int = 0
    #: Released combinations whose retrieval was skipped by the
    #: distance-aware influence bound (Algorithm 5 extension).
    retrievals_skipped: int = 0
    #: Total pulling rounds across all sets.
    pull_rounds: int = 0
    #: τ trajectory: one point per pulling round (capped; ``pull_rounds``
    #: keeps the true total).  Each point is (round, set pulled from,
    #: τ before the pull, that set's next bound ``min_j``).
    trajectory: list[tuple[int, int, float, float]] = field(
        default_factory=list
    )

    def to_dict(self) -> dict:
        return {
            "released": self.released,
            "rejected_2r": self.rejected_2r,
            "retrievals_skipped": self.retrievals_skipped,
            "pull_rounds": self.pull_rounds,
            "trajectory": [
                {
                    "round": r,
                    "set_id": s,
                    "threshold": None if math.isinf(t) else t,
                    "next_bound": b,
                }
                for r, s, t, b in self.trajectory
            ],
            "trajectory_truncated": self.pull_rounds > len(self.trajectory),
        }


@dataclass(slots=True)
class STDSDiag:
    """Algorithm 1 anatomy: the chunked scan and its threshold fold."""

    #: Objects dropped early by the ``τ̂(p) < threshold`` rule.
    objects_dropped: int = 0
    #: Early inner-loop terminations in the per-object variants.
    early_terminations: int = 0
    #: Final value of the k-th-score threshold.
    threshold_final: float = -math.inf
    #: (chunk id, chunk size, threshold after the fold), capped.
    chunks: list[tuple[int, int, float]] = field(default_factory=list)
    chunk_count: int = 0

    def to_dict(self) -> dict:
        return {
            "objects_dropped": self.objects_dropped,
            "early_terminations": self.early_terminations,
            "threshold_final": (
                None if math.isinf(self.threshold_final)
                else self.threshold_final
            ),
            "chunks": [
                {
                    "chunk": c,
                    "size": n,
                    "threshold": None if math.isinf(t) else t,
                }
                for c, n, t in self.chunks
            ],
            "chunk_count": self.chunk_count,
        }


@dataclass(slots=True)
class ShardDiag:
    """One shard's fan-out verdict for one sharded query."""

    shard_id: int
    #: ``pruned`` (root bound below the merged floor), ``executed``, or
    #: ``failed``.  Reconciles with ``repro_shard_queries{outcome=...}``.
    verdict: str
    #: The shard's advertised root bound ``Σ_i max ŝ_i``.
    bound: float = 0.0
    #: The merged cross-shard floor the verdict was decided against.
    floor: float = -math.inf
    elapsed_s: float = 0.0
    error: str | None = None
    #: Full sub-plan of the per-shard execution (executed shards only).
    plan: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "shard_id": self.shard_id,
            "verdict": self.verdict,
            "bound": self.bound,
            "floor": None if math.isinf(self.floor) else self.floor,
            "elapsed_s": self.elapsed_s,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.plan is not None:
            out["plan"] = self.plan
        return out


@dataclass(slots=True)
class QueryPlan:
    """The structured outcome of one EXPLAIN'd query execution."""

    schema_version: int = PLAN_SCHEMA_VERSION
    trace_id: str = ""
    algorithm: str = ""
    variant: str = ""
    pulling: str = ""
    k: int = 0
    radius: float = 0.0
    lam: float = 0.0
    c: int = 0
    elapsed_s: float = 0.0
    #: Reconciles with ``repro_objects_scored_total``.
    objects_scored: int = 0
    feature_sets: list[FeatureSetDiag] = field(default_factory=list)
    combinations: CombinationDiag | None = None
    stds: STDSDiag | None = None
    #: NN variant only: Voronoi-cell accounting.
    voronoi: dict | None = None
    #: ISS only: bound-probe accounting.
    iss: dict | None = None
    shards: list[ShardDiag] = field(default_factory=list)
    #: Phase wall-times copied from the result stats (tracing on only).
    phase_times: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # reconciliation / rendering
    # ------------------------------------------------------------------
    @property
    def combinations_released(self) -> int:
        return self.combinations.released if self.combinations else 0

    @property
    def features_pulled_total(self) -> int:
        return sum(d.features_pulled for d in self.feature_sets)

    def shard_outcomes(self) -> dict[str, int]:
        """Verdict counts, e.g. ``{"executed": 3, "pruned": 1}``."""
        out: dict[str, int] = {}
        for shard in self.shards:
            out[shard.verdict] = out.get(shard.verdict, 0) + 1
        return out

    def counters(self) -> dict[str, float]:
        """The flat counter view the metrics registry must agree with.

        Keys mirror the registered families so the differential tests can
        assert ``plan.counters() == registry counter deltas`` exactly.
        """
        out: dict[str, float] = {
            "repro_combinations_total": float(self.combinations_released),
            "repro_objects_scored_total": float(self.objects_scored),
        }
        for diag in self.feature_sets:
            out[f"repro_features_pulled_total[{diag.set_id}]"] = float(
                diag.features_pulled
            )
        for verdict, count in self.shard_outcomes().items():
            out[f"repro_shard_queries[{verdict}]"] = float(count)
        return out

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "trace_id": self.trace_id,
            "algorithm": self.algorithm,
            "variant": self.variant,
            "pulling": self.pulling,
            "k": self.k,
            "radius": self.radius,
            "lam": self.lam,
            "c": self.c,
            "elapsed_s": self.elapsed_s,
            "objects_scored": self.objects_scored,
            "feature_sets": [d.to_dict() for d in self.feature_sets],
        }
        if self.combinations is not None:
            out["combinations"] = self.combinations.to_dict()
        if self.stds is not None:
            out["stds"] = self.stds.to_dict()
        if self.voronoi is not None:
            out["voronoi"] = dict(self.voronoi)
        if self.iss is not None:
            out["iss"] = dict(self.iss)
        if self.shards:
            out["shards"] = [s.to_dict() for s in self.shards]
            out["shard_outcomes"] = self.shard_outcomes()
        if self.phase_times:
            out["phase_times"] = dict(self.phase_times)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable plan: aligned tables, one section per stage."""
        lines = [
            f"QUERY PLAN  [{self.algorithm}/{self.variant}"
            + (f"/{self.pulling}" if self.pulling else "")
            + f"]  trace_id={self.trace_id or '-'}",
            f"  k={self.k}  r={self.radius}  lambda={self.lam}  "
            f"c={self.c}  elapsed={self.elapsed_s * 1e3:.2f}ms  "
            f"objects_scored={self.objects_scored}",
        ]
        if self.feature_sets:
            lines.append(
                "  feature sets (Algorithm 2 / sorted streams):"
            )
            lines.append(
                "    set  visited  pruned  leaf_pruned  pulled  rounds"
                "  pruned-bound range"
            )
            for d in self.feature_sets:
                pb = d.pruned_bounds
                span = (
                    f"[{pb.min:.4f}, {pb.max:.4f}]" if pb.count else "-"
                )
                lines.append(
                    f"    {d.set_id:>3}  {d.nodes_visited:>7}  "
                    f"{d.nodes_pruned:>6}  {d.entries_pruned:>11}  "
                    f"{d.features_pulled:>6}  {d.pull_rounds:>6}  {span}"
                )
        if self.combinations is not None:
            cd = self.combinations
            lines.append(
                f"  combinations (Algorithms 3-4): released={cd.released}"
                f"  rejected_2r={cd.rejected_2r}"
                + (
                    f"  retrievals_skipped={cd.retrievals_skipped}"
                    if cd.retrievals_skipped
                    else ""
                )
                + f"  pull_rounds={cd.pull_rounds}"
            )
            if cd.trajectory:
                head = cd.trajectory[: min(len(cd.trajectory), 6)]
                shown = ", ".join(
                    f"#{r}:set{s}"
                    + (f" tau={t:.4f}" if not math.isinf(t) else " tau=-inf")
                    for r, s, t, _ in head
                )
                suffix = " ..." if cd.pull_rounds > len(head) else ""
                lines.append(f"    tau trajectory: {shown}{suffix}")
        if self.stds is not None:
            sd = self.stds
            final = (
                "-inf" if math.isinf(sd.threshold_final)
                else f"{sd.threshold_final:.4f}"
            )
            lines.append(
                f"  stds scan (Algorithm 1): chunks={sd.chunk_count}"
                f"  dropped={sd.objects_dropped}"
                f"  early_terminations={sd.early_terminations}"
                f"  final_threshold={final}"
            )
        if self.voronoi is not None:
            v = self.voronoi
            lines.append(
                "  voronoi (Section 7.2): "
                f"cells_computed={v.get('cells_computed', 0)}"
                f"  cache_hits={v.get('cell_cache_hits', 0)}"
                f"  empty_intersections={v.get('empty_intersections', 0)}"
            )
        if self.iss is not None:
            p = self.iss
            lines.append(
                "  iss (extension): "
                f"point_probes={p.get('bound_probes_point', 0)}"
                f"  node_probes={p.get('bound_probes_node', 0)}"
            )
        if self.shards:
            lines.append(
                f"  shard fan-out: {self.shard_outcomes()}"
            )
            lines.append(
                "    shard  verdict   bound      floor      elapsed"
            )
            for s in self.shards:
                floor = (
                    "-inf" if math.isinf(s.floor) else f"{s.floor:.4f}"
                )
                lines.append(
                    f"    {s.shard_id:>5}  {s.verdict:<8}  "
                    f"{s.bound:>8.4f}  {floor:>9}  "
                    f"{s.elapsed_s * 1e3:>8.2f}ms"
                    + (f"  error={s.error}" if s.error else "")
                )
        if self.phase_times:
            lines.append("  phase times:")
            for phase, seconds in sorted(self.phase_times.items()):
                lines.append(f"    {phase:<32} {seconds:.4f}s")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# collectors
# ----------------------------------------------------------------------
class DiagnosticsCollector:
    """Accumulates a :class:`QueryPlan` while a query executes.

    Thread-safe: the sharded fan-out records shard verdicts and folds
    sub-plans in from worker threads.  All mutation goes through one
    lock — EXPLAIN mode is diagnostic, correctness beats nanoseconds
    here; the *disabled* path (:data:`NULL_COLLECTOR`) costs one
    attribute check.
    """

    __slots__ = ("_plan", "_lock", "_set_diags")

    active = True

    def __init__(self) -> None:
        self._plan = QueryPlan()
        self._lock = threading.Lock()
        self._set_diags: dict[int, FeatureSetDiag] = {}

    # -- feature-set traversal (Algorithm 2 / streams) ------------------
    def _set_diag(self, set_id: int) -> FeatureSetDiag:
        diag = self._set_diags.get(set_id)
        if diag is None:
            diag = FeatureSetDiag(set_id)
            self._set_diags[set_id] = diag
            self._plan.feature_sets.append(diag)
            self._plan.feature_sets.sort(key=lambda d: d.set_id)
        return diag

    def node_visited(self, set_id: int, bound: float) -> None:
        """An index node of ``set_id`` was expanded at bound ``ŝ(e)``."""
        with self._lock:
            self._set_diag(set_id).nodes_visited += 1

    def node_pruned(
        self, set_id: int, bound: float | None = None
    ) -> None:
        """An internal entry was discarded; ``bound`` when bound-pruned."""
        with self._lock:
            diag = self._set_diag(set_id)
            diag.nodes_pruned += 1
            if bound is not None:
                diag.pruned_bounds.add(bound)

    def entries_pruned(self, set_id: int, count: int = 1) -> None:
        """``count`` leaf entries were discarded (text / range)."""
        if count <= 0:
            return
        with self._lock:
            self._set_diag(set_id).entries_pruned += count

    def feature_pulled(self, set_id: int) -> None:
        """One feature object left ``set_id``'s sorted stream."""
        with self._lock:
            self._set_diag(set_id).features_pulled += 1

    # -- combination stream (Algorithms 3-4) ----------------------------
    def _combinations(self) -> CombinationDiag:
        if self._plan.combinations is None:
            self._plan.combinations = CombinationDiag()
        return self._plan.combinations

    def pull(
        self, set_id: int, threshold: float, next_bound: float
    ) -> None:
        """One pulling round: ``set_id`` chosen at threshold ``τ``."""
        with self._lock:
            diag = self._combinations()
            diag.pull_rounds += 1
            self._set_diag(set_id).pull_rounds += 1
            if len(diag.trajectory) < MAX_TRAJECTORY:
                diag.trajectory.append(
                    (diag.pull_rounds, set_id, threshold, next_bound)
                )

    def combination(self, score: float, accepted: bool) -> None:
        """A combination was assembled; ``accepted`` per Lemma 1."""
        with self._lock:
            diag = self._combinations()
            if accepted:
                diag.released += 1
            else:
                diag.rejected_2r += 1

    def retrieval_skipped(self, score: float) -> None:
        """A released combination's retrieval was bound-skipped."""
        with self._lock:
            self._combinations().retrievals_skipped += 1

    # -- STDS scan (Algorithm 1) ----------------------------------------
    def _stds(self) -> STDSDiag:
        if self._plan.stds is None:
            self._plan.stds = STDSDiag()
        return self._plan.stds

    def chunk(self, chunk_id: int, size: int, threshold: float) -> None:
        with self._lock:
            diag = self._stds()
            diag.chunk_count += 1
            diag.threshold_final = threshold
            if len(diag.chunks) < MAX_CHUNKS:
                diag.chunks.append((chunk_id, size, threshold))

    def objects_dropped(self, count: int = 1) -> None:
        if count <= 0:
            return
        with self._lock:
            self._stds().objects_dropped += count

    def early_termination(self) -> None:
        with self._lock:
            self._stds().early_terminations += 1

    # -- NN Voronoi / ISS ----------------------------------------------
    def voronoi_cell(self, cache_hit: bool) -> None:
        with self._lock:
            v = self._plan.voronoi
            if v is None:
                v = self._plan.voronoi = {
                    "cells_computed": 0,
                    "cell_cache_hits": 0,
                    "empty_intersections": 0,
                }
            v["cell_cache_hits" if cache_hit else "cells_computed"] += 1

    def voronoi_empty(self) -> None:
        with self._lock:
            v = self._plan.voronoi
            if v is None:
                v = self._plan.voronoi = {
                    "cells_computed": 0,
                    "cell_cache_hits": 0,
                    "empty_intersections": 0,
                }
            v["empty_intersections"] += 1

    def iss_probe(self, point: bool) -> None:
        with self._lock:
            p = self._plan.iss
            if p is None:
                p = self._plan.iss = {
                    "bound_probes_point": 0,
                    "bound_probes_node": 0,
                }
            p["bound_probes_point" if point else "bound_probes_node"] += 1

    # -- shard fan-out --------------------------------------------------
    def child(self, shard_id: int) -> "DiagnosticsCollector":
        """A fresh collector for one shard's per-shard execution."""
        return DiagnosticsCollector()

    def shard(
        self,
        shard_id: int,
        verdict: str,
        bound: float,
        floor: float,
        elapsed_s: float = 0.0,
        error: str | None = None,
        sub_plan: "QueryPlan | None" = None,
    ) -> None:
        """Record one shard's fan-out verdict (thread-safe).

        An executed shard's ``sub_plan`` (its child collector's plan in
        thread mode, the plan object the worker shipped in process
        mode; finalized by the per-shard query either way) is embedded
        AND folded into this plan's aggregates, so the parent plan's
        counters reconcile with the registry deltas the per-shard
        executions produced.
        """
        diag = ShardDiag(
            shard_id=shard_id,
            verdict=verdict,
            bound=bound,
            floor=floor,
            elapsed_s=elapsed_s,
            error=error,
            plan=sub_plan.to_dict() if sub_plan is not None else None,
        )
        with self._lock:
            self._plan.shards.append(diag)
            self._plan.shards.sort(key=lambda s: s.shard_id)
            if sub_plan is not None:
                self._merge_sub_plan(sub_plan)

    def _merge_sub_plan(self, sub: QueryPlan) -> None:
        """Fold one shard's plan into the parent aggregates (lock held)."""
        for d in sub.feature_sets:
            mine = self._set_diag(d.set_id)
            mine.nodes_visited += d.nodes_visited
            mine.nodes_pruned += d.nodes_pruned
            mine.entries_pruned += d.entries_pruned
            mine.features_pulled += d.features_pulled
            mine.pull_rounds += d.pull_rounds
            mine.pruned_bounds.merge(d.pruned_bounds)
        if sub.combinations is not None:
            cd = self._combinations()
            cd.released += sub.combinations.released
            cd.rejected_2r += sub.combinations.rejected_2r
            cd.retrievals_skipped += sub.combinations.retrievals_skipped
            cd.pull_rounds += sub.combinations.pull_rounds
            # Trajectories stay per-shard (in the embedded sub-plan) —
            # interleaving them across shards would be meaningless.
        if sub.stds is not None:
            sd = self._stds()
            sd.objects_dropped += sub.stds.objects_dropped
            sd.early_terminations += sub.stds.early_terminations
            sd.chunk_count += sub.stds.chunk_count
            if sub.stds.threshold_final > sd.threshold_final:
                sd.threshold_final = sub.stds.threshold_final
        if sub.voronoi is not None:
            if self._plan.voronoi is None:
                self._plan.voronoi = {
                    "cells_computed": 0,
                    "cell_cache_hits": 0,
                    "empty_intersections": 0,
                }
            for key, value in sub.voronoi.items():
                self._plan.voronoi[key] = (
                    self._plan.voronoi.get(key, 0) + value
                )
        if sub.iss is not None:
            if self._plan.iss is None:
                self._plan.iss = {
                    "bound_probes_point": 0,
                    "bound_probes_node": 0,
                }
            for key, value in sub.iss.items():
                self._plan.iss[key] = self._plan.iss.get(key, 0) + value

    # -- lifecycle ------------------------------------------------------
    def finalize(
        self,
        query,
        algorithm: str,
        pulling: str,
        trace_id: str,
        elapsed_s: float,
        stats,
    ) -> None:
        """Stamp query identity + result stats onto the plan.

        Counter-bearing fields (``objects_scored``, per-set
        ``features_pulled``) are copied from the *same* ``QueryStats``
        the metrics instrumentation reads, so plan counts and registry
        deltas cannot diverge.
        """
        with self._lock:
            plan = self._plan
            plan.trace_id = trace_id
            plan.algorithm = algorithm
            plan.variant = query.variant.value
            plan.pulling = pulling
            plan.k = query.k
            plan.radius = query.radius
            plan.lam = query.lam
            plan.c = query.c
            plan.elapsed_s = elapsed_s
            plan.objects_scored = stats.objects_scored
            if plan.combinations is not None:
                plan.combinations.released = stats.combinations
            if stats.phase_times:
                plan.phase_times = dict(stats.phase_times)

    def plan(self) -> QueryPlan:
        """The accumulated plan (live object; copy if mutating)."""
        return self._plan


class _NullCollector:
    """Shared no-op collector used when EXPLAIN is off.

    Hot paths check ``collector.active`` once per instrumentation point;
    every method is a no-op so a stray un-guarded call is still safe.
    """

    __slots__ = ()

    active = False

    def node_visited(self, set_id, bound) -> None:
        pass

    def node_pruned(self, set_id, bound=None) -> None:
        pass

    def entries_pruned(self, set_id, count=1) -> None:
        pass

    def feature_pulled(self, set_id) -> None:
        pass

    def pull(self, set_id, threshold, next_bound) -> None:
        pass

    def combination(self, score, accepted) -> None:
        pass

    def retrieval_skipped(self, score) -> None:
        pass

    def chunk(self, chunk_id, size, threshold) -> None:
        pass

    def objects_dropped(self, count=1) -> None:
        pass

    def early_termination(self) -> None:
        pass

    def voronoi_cell(self, cache_hit) -> None:
        pass

    def voronoi_empty(self) -> None:
        pass

    def iss_probe(self, point) -> None:
        pass

    def child(self, shard_id) -> "_NullCollector":
        return self

    def shard(self, *args, **kwargs) -> None:
        pass

    def finalize(self, *args, **kwargs) -> None:
        pass

    def plan(self) -> QueryPlan:
        return QueryPlan()


NULL_COLLECTOR = _NullCollector()


def resolve(collector) -> "DiagnosticsCollector | _NullCollector":
    """``collector`` or the shared null collector."""
    return collector if collector is not None else NULL_COLLECTOR


@dataclass(slots=True)
class ExplainReport:
    """What ``QueryProcessor.explain`` returns: plan + ordinary result."""

    plan: QueryPlan
    result: object  # QueryResult (untyped to avoid an import cycle)


# ----------------------------------------------------------------------
# reconciliation helpers (used by the differential tests and the CLI)
# ----------------------------------------------------------------------
def counter_snapshot(registry) -> dict[tuple[str, tuple[str, ...]], float]:
    """Flat ``{(family, label values): value}`` view of all counters."""
    out: dict[tuple[str, tuple[str, ...]], float] = {}
    for family in registry.families():
        if family.type_name != "counter":
            continue
        for labelvalues, child in family.series():
            out[(family.name, labelvalues)] = child.value
    return out


def counter_deltas(before: dict, after: dict) -> dict:
    """Per-series deltas between two :func:`counter_snapshot` maps."""
    deltas: dict[tuple[str, tuple[str, ...]], float] = {}
    for key, value in after.items():
        delta = value - before.get(key, 0.0)
        if delta:
            deltas[key] = delta
    return deltas
