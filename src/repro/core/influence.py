"""STPS for the influence score variant (Section 7.1, Algorithm 5).

Definition 6 replaces the hard range predicate with exponential distance
decay: ``τ_i(p) = max s(t)·2^(-dist(p,t)/r)`` over relevant features.

Changes relative to range-score STPS, exactly as the paper prescribes:

* ``nextCombination`` no longer discards combinations by the ``2r`` rule;
* a combination's score ``s(C)`` is only an *upper bound* for data-object
  scores (attained at distance 0), so ``getDataObjects`` becomes a
  best-first top-k search on the object R-tree with the per-combination
  influence score, floored at the current k-th best score ``τ``;
* objects retrieved by several combinations keep their maximum score;
* the loop ends once ``k`` objects are known and the next combination's
  upper bound cannot beat the current k-th score.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

from repro.core.combinations import (
    PULL_PRIORITIZED,
    Combination,
    CombinationIterator,
)
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, StatsTracker, rank_items
from repro.errors import QueryError
from repro.geometry.rect import Rect
from repro.index.feature_tree import FeatureTree
from repro.index.object_rtree import ObjectRTree
from repro.obs import tracing as _tracing


def stps_influence(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    pulling: str = PULL_PRIORITIZED,
    floor: float = -math.inf,
    stats: QueryStats | None = None,
) -> QueryResult:
    """Run STPS for the influence score variant (Algorithm 5).

    ``floor`` — see :func:`repro.core.stps.stps`: the external lower
    bound on the caller's merged k-th score.  ``s(C)`` upper-bounds every
    object of this and all later combinations, so the loop ends once it
    drops *strictly* below the floor.
    """
    if query.variant is not Variant.INFLUENCE:
        raise QueryError(f"stps_influence() got variant {query.variant}")
    tracker = StatsTracker(
        [object_tree.pagefile] + [t.pagefile for t in feature_trees]
    )
    stats = stats or QueryStats()
    rec = _tracing.recorder()
    iterator = CombinationIterator(
        feature_trees, query, enforce_2r=False, pulling=pulling, recorder=rec,
        stats=stats,
    )
    best: dict[int, tuple[float, float, float]] = {}  # oid -> (score, x, y)
    k = query.k
    radius = query.radius
    # The k-th best score so far is the pruning threshold; it only moves
    # when a retrieval updates `best`, so it is recomputed lazily instead
    # of per combination (Algorithm 5 examines a combination per loop
    # turn; the turns vastly outnumber the successful retrievals).
    threshold = -math.inf
    decay_cache: dict[tuple[int, int, int, int], float] = {}

    while True:
        combo = iterator.next()
        if combo is None:
            break
        # s(C) is the score of a hypothetical object at distance 0 from
        # every member, hence an upper bound for all unseen objects of
        # this and every later (lower-scored) combination.  Strict
        # comparisons throughout: an object can *attain* the bound
        # (distance 0 to every member), and an exact tie at the k-th
        # score must survive for the (score desc, oid asc) tie-break.
        if combo.score < floor:
            break
        if len(best) >= k and combo.score < threshold:
            break
        if combo.is_all_virtual:
            continue  # contributes score 0 to every object
        # Distance-aware refinement of the s(C) bound: the best influence
        # score any single point can collect from THIS combination.  Far
        # apart members cannot be reached simultaneously, so most
        # combinations are skipped without touching the object R-tree.
        # (Sound pruning only — results are identical; see DESIGN.md.)
        if len(best) >= k and (
            _combo_influence_bound_cached(
                combo.features, radius, decay_cache
            )
            < threshold
        ):
            stats.retrievals_skipped += 1
            continue
        members = [
            (f.x, f.y, f.score) for f in combo.features if not f.is_virtual
        ]
        updated = False
        with rec.span("stps.get_data_objects"):
            # best_first keeps scores strictly above its floor; back the
            # threshold off by one ulp so exact ties are retained.
            retrieved = list(
                _influence_top_k_members(
                    object_tree,
                    members,
                    query,
                    math.nextafter(threshold, -math.inf)
                    if math.isfinite(threshold)
                    else threshold,
                )
            )
        for score, entry in retrieved:
            current = best.get(entry.oid)
            if current is None or score > current[0]:
                best[entry.oid] = (score, entry.x, entry.y)
                updated = True
        if updated and len(best) >= k:
            threshold = heapq.nlargest(
                k, (v[0] for v in best.values())
            )[-1]

    if len(best) < query.k:
        # Zero-score tail: objects influenced by no relevant feature at
        # all (the all-virtual combination contributes 0 to everyone).
        remaining = sorted(
            (e.oid, e.x, e.y)
            for e in object_tree.all_entries()
            if e.oid not in best
        )
        for oid, x, y in remaining[: query.k - len(best)]:
            best[oid] = (0.0, x, y)

    stats.objects_scored = len(best)
    stats.phase_times = rec.totals()
    candidates = [
        (score, oid, x, y) for oid, (score, x, y) in best.items()
    ]
    result = QueryResult(rank_items(candidates, query.k), stats)
    tracker.finish(stats)
    return result


def _combo_influence_bound_cached(
    features, radius: float, decay_cache: dict
) -> float:
    """Fast path of :func:`_combo_influence_bound` over streamed features.

    Per-query cache of pairwise decay factors: combinations share members
    heavily, so each (slot_i, fid_i, slot_j, fid_j) pair is computed once.
    """
    real = [(i, f) for i, f in enumerate(features) if not f.is_virtual]
    if len(real) == 1:
        return real[0][1].score
    cache_get = decay_cache.get
    hypot = math.hypot
    best = math.inf
    for i, fi in real:
        fi_score = fi.score
        dists = []
        scores = []
        for j, fj in real:
            if j == i:
                continue
            key = (i, fi.fid, j, fj.fid)
            d = cache_get(key)
            if d is None:
                d = hypot(fi.x - fj.x, fi.y - fj.y)
                decay_cache[key] = d
            dists.append(d)
            scores.append(fj.score)
        g_max = 0.0
        for u in (0.0, *dists):
            g = fi_score * 2.0 ** (-u / radius)
            for d, sj in zip(dists, scores):
                diff = d - u
                if diff > 0.0:
                    g += sj * 2.0 ** (-diff / radius)
                else:
                    g += sj
            if g > g_max:
                g_max = g
        if g_max < best:
            best = g_max
        if best <= 0.0:
            break
    return best


def _influence_top_k_members(
    object_tree: ObjectRTree,
    members: list[tuple[float, float, float]],
    query: PreferenceQuery,
    floor: float,
):
    """Top-k data objects by the members' combined influence score."""
    radius = query.radius

    def node_bound(rect: Rect) -> float:
        return sum(
            s * 2.0 ** (-rect.mindist((x, y)) / radius) for x, y, s in members
        )

    def point_score(px: float, py: float) -> float:
        return sum(
            s * 2.0 ** (-math.hypot(px - x, py - y) / radius)
            for x, y, s in members
        )

    return object_tree.best_first(
        node_bound, point_score, limit=query.k, floor=floor, ties=True
    )


def _combo_influence_bound(
    members: list[tuple[float, float, float]], radius: float
) -> float:
    """Max influence score any point can collect from these members.

    For each anchor member ``i`` and any point ``p`` at distance ``u``
    from it, ``dist(p, t_j) >= max(0, d_ij - u)``, so the combination's
    influence score is bounded by

        g_i(u) = s_i 2^{-u/r} + Σ_j s_j 2^{-max(0, d_ij - u)/r}.

    On each interval between breakpoints ``u ∈ {0, d_ij...}`` the function
    is convex, so its maximum over ``u`` is attained at a breakpoint; the
    overall bound is the minimum over anchors.  Far-apart members thus
    bound to ~max(s_i) instead of Σ s_i.
    """
    if len(members) == 1:
        return members[0][2]
    best = math.inf
    for i, (xi, yi, si) in enumerate(members):
        pairs = [
            (math.hypot(xi - xj, yi - yj), sj)
            for j, (xj, yj, sj) in enumerate(members)
            if j != i
        ]
        g_max = 0.0
        for u in [0.0] + [d for d, _ in pairs]:
            g = si * 2.0 ** (-u / radius) + sum(
                sj * 2.0 ** (-max(0.0, d - u) / radius) for d, sj in pairs
            )
            if g > g_max:
                g_max = g
        if g_max < best:
            best = g_max
    return best
