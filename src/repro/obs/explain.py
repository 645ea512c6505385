"""EXPLAIN/ANALYZE query plans: why a query was fast or slow.

The paper's algorithms live or die on pruning effectiveness — STDS's
early-termination threshold ``τ̂(p)`` (Section 5, Algorithms 1-2), STPS's
valid-combination assembly under Lemma 1 and the prioritized pulling
strategy (Section 6, Algorithms 3-4).  This module reports *why* a query
cost what it did: per-feature-set node accesses vs. prunes with the
``ŝ(e)`` bound values, combinations assembled vs. rejected by Lemma 1,
the threshold trajectory per pulling round, and — for the sharded
engine — per-shard fan-out verdicts.

Both the plan and the metrics registry are *views* of the query's one
accumulator, :class:`repro.core.results.QueryStats`: the engine counts
every event into it, always.  :meth:`QueryPlan.from_stats` arranges
those counts into sections, and :func:`record_query` derives the six
per-query registry families from them, once per query the caller asked
for.  Both read one mapping (:func:`_increments`), so
``plan.counters()`` equals what the query added to the registry.  This
module also defines the records the accumulator is made of
(:class:`FeatureSetDiag`, :class:`ShardDiag`) and the
:class:`PlanDetail` it carries only when a plan was asked for — the
three series that grow with query length (τ trajectory, chunk list,
pruned-bound summaries).  Render with :meth:`QueryPlan.to_dict` /
``to_json`` or the human-readable :meth:`QueryPlan.render`.

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
from dataclasses import dataclass, field, fields, replace

from repro.obs import metrics as _metrics

#: Version of the plan JSON schema (bump on breaking field changes).
#: 2 dropped the key that named the pulling strategy (STPS has one).
PLAN_SCHEMA_VERSION = 2

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
    """One feature set's part of ``QueryStats``: the stream or STDS
    traversal (Algorithm 2) walking the set counts into it."""

    set_id: int
    #: Index nodes expanded (read + children pushed) for this set.
    nodes_visited: int = 0
    #: Internal entries discarded without expansion (the stream:
    #: text-irrelevant at push time; batched STDS: out of reach of the
    #: pending objects, whatever their text — see ``pruned_bounds``).
    nodes_pruned: int = 0
    #: Leaf entries discarded (text-irrelevant or out of range).
    entries_pruned: int = 0
    #: ``ŝ(e)`` of the text-relevant entries batched STDS pruned out of
    #: reach (text prunes carry none).  Plan detail: None unless
    #: ``QueryStats.detail`` is set.
    pruned_bounds: BoundSummary | None = None
    #: Feature objects pulled from this set's sorted stream (STPS).
    #: Reconciles with ``repro_features_pulled_total{feature_set=...}``.
    features_pulled: int = 0
    #: Pulling rounds charged to this set (Definition 5 decisions).
    pull_rounds: int = 0
    #: Heap pops of this set's STDS traversals (not part of the plan).
    heap_pops: int = 0

    def merge(self, other: "FeatureSetDiag") -> None:
        for f in fields(self):
            if f.type == "int" and f.name != "set_id":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        if other.pruned_bounds is not None:
            if self.pruned_bounds is None:
                self.pruned_bounds = BoundSummary()
            self.pruned_bounds.merge(other.pruned_bounds)

    def to_dict(self) -> dict:
        return {
            "set_id": self.set_id,
            "nodes_visited": self.nodes_visited,
            "nodes_pruned": self.nodes_pruned,
            "entries_pruned": self.entries_pruned,
            "pruned_bounds": (self.pruned_bounds or BoundSummary()).to_dict(),
            "features_pulled": self.features_pulled,
            "pull_rounds": self.pull_rounds,
        }


@dataclass(slots=True)
class PlanDetail:
    """The series that grow with query length, kept only for a plan."""

    #: τ trajectory, capped at :data:`MAX_TRAJECTORY` (``pull_rounds`` has
    #: the true total): (round, set pulled from, τ before, its ``min_j``).
    trajectory: list[tuple[int, int, float, float]] = field(
        default_factory=list
    )
    #: (chunk id, chunk size, threshold after the fold), capped at
    #: :data:`MAX_CHUNKS`.
    chunks: list[tuple[int, int, float]] = field(default_factory=list)


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
    #: ``PlanDetail.trajectory`` (empty for a sharded whole).
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
    #: Full sub-plan of the per-shard execution (executed shards only),
    #: filled in by :meth:`QueryPlan.from_stats` from ``stats``.
    plan: dict | None = None
    #: The per-shard execution's own ``QueryStats`` (executed shards).
    stats: object | None = None

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
    shards: list[ShardDiag] = field(default_factory=list)
    #: Phase wall-times copied from the result stats (tracing on only).
    phase_times: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_stats(cls, query, algorithm: str, stats) -> "QueryPlan":
        """The plan of one executed query, read off its ``QueryStats``.

        A section is present when its engine counted anything; an
        executed shard's sub-plan is built from the verdict's own stats.
        """
        detail = stats.detail
        plan = cls(
            trace_id=stats.trace_id,
            algorithm=algorithm,
            variant=query.variant.value,
            k=query.k,
            radius=query.radius,
            lam=query.lam,
            c=query.c,
            elapsed_s=stats.wall_s,
            objects_scored=stats.objects_scored,
            feature_sets=list(stats.feature_sets),
            phase_times=dict(stats.phase_times),
        )
        if stats.combinations or stats.rejected_2r or stats.pull_rounds:
            plan.combinations = CombinationDiag(
                released=stats.combinations,
                rejected_2r=stats.rejected_2r,
                retrievals_skipped=stats.retrievals_skipped,
                pull_rounds=stats.pull_rounds,
                trajectory=detail.trajectory if detail is not None else [],
            )
        if stats.chunk_count or stats.objects_dropped:
            plan.stds = STDSDiag(
                objects_dropped=stats.objects_dropped,
                early_terminations=stats.early_terminations,
                threshold_final=stats.threshold_final,
                chunks=detail.chunks if detail is not None else [],
                chunk_count=stats.chunk_count,
            )
        voronoi = {
            "cells_computed": stats.voronoi_cells_computed,
            "cell_cache_hits": stats.voronoi_cell_cache_hits,
            "empty_intersections": stats.voronoi_empty_intersections,
        }
        plan.voronoi = voronoi if any(voronoi.values()) else None
        shard_algorithm = algorithm.removeprefix("sharded/")
        plan.shards = [
            shard if shard.stats is None else replace(
                shard,
                plan=cls.from_stats(
                    query, shard_algorithm, shard.stats
                ).to_dict(),
            )
            for shard in stats.shards
        ]
        return plan

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
        """What :func:`record_query` added to each per-query counter.

        Keyed ``family`` or ``family[selector]`` (the feature set, the
        shard verdict), read off the same mapping the registry is fed by.
        """
        out: dict[str, float] = {}
        for name, selector, amount in _increments(
            self.combinations_released, self.objects_scored,
            self.feature_sets, self.shards,
        ):
            key = name if selector is None else f"{name}[{selector}]"
            out[key] = out.get(key, 0.0) + amount
        return out

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "trace_id": self.trace_id,
            "algorithm": self.algorithm,
            "variant": self.variant,
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
            f"QUERY PLAN  [{self.algorithm}/{self.variant}]  "
            f"trace_id={self.trace_id or '-'}",
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
                    f"[{pb.min:.4f}, {pb.max:.4f}]"
                    if pb is not None and pb.count else "-"
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
# the registry view
# ----------------------------------------------------------------------
#: The labels of a query's families: the processor's two.
_QUERY_LABELS = ("algorithm", "variant")

#: Per-query counters: family -> (help, label names).  A selector (see
#: :func:`_increments`) fills the last label; the query's own labels, in
#: order, fill the ones before it.
_COUNTERS = {
    "repro_combinations_total": (
        "Valid combinations released (Algorithm 4).", _QUERY_LABELS
    ),
    "repro_objects_scored_total": (
        "Data objects scored or retrieved.", _QUERY_LABELS
    ),
    "repro_features_pulled_total": (
        "Feature objects pulled from the sorted streams.",
        (*_QUERY_LABELS, "feature_set"),
    ),
    "repro_shard_queries": (
        "Per-shard query executions by outcome.", ("algorithm", "outcome")
    ),
}


def _increments(combinations, objects_scored, feature_sets, shards):
    """``(family, selector, amount)`` for everything one query counted."""
    yield "repro_combinations_total", None, combinations
    yield "repro_objects_scored_total", None, objects_scored
    for diag in feature_sets:
        yield (
            "repro_features_pulled_total", str(diag.set_id),
            diag.features_pulled,
        )
    for shard in shards:
        yield "repro_shard_queries", shard.verdict, 1


def counter_family(name: str) -> "_metrics.MetricFamily":
    """Per-query counter ``name`` in the current default registry."""
    help_text, labelnames = _COUNTERS[name]
    return _metrics.registry().counter(name, help_text, labelnames)


def record_query(
    stats, algorithm: str, variant: str, elapsed_s: float
) -> None:
    """Derive one finished query's registry updates from its ``QueryStats``.

    The only writer of the six per-query families: ``repro_query_seconds``,
    ``repro_queries_total`` and every nonzero :func:`_increments` entry.
    ``QueryProcessor.query`` and ``ShardedQueryProcessor.query`` (over
    the merged stats) call it once per query, on success and on failure,
    inside the query's trace scope so the latency observation carries
    its exemplar.
    """
    reg = _metrics.registry()
    values = (algorithm, variant)
    labels = dict(zip(_QUERY_LABELS, values))
    reg.histogram(
        "repro_query_seconds", "End-to-end query latency.", _QUERY_LABELS
    ).labels(**labels).observe(elapsed_s)
    reg.counter(
        "repro_queries_total", "Queries executed.", _QUERY_LABELS
    ).labels(**labels).inc()
    for name, selector, amount in _increments(
        stats.combinations, stats.objects_scored, stats.feature_sets,
        stats.shards,
    ):
        if not amount:
            continue
        family = counter_family(name)
        key = values
        if selector is not None:
            key = (*values[: len(family.labelnames) - 1], selector)
        family.labels(**dict(zip(family.labelnames, key))).inc(amount)


@dataclass(slots=True)
class ExplainReport:
    """What ``QueryProcessor.explain`` returns: plan + ordinary result."""

    plan: QueryPlan
    result: object  # QueryResult (untyped to avoid an import cycle)
