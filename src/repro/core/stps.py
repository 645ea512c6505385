"""Spatio-Textual Preference Search (STPS) — Sections 6 and 7.

Algorithm 3: repeatedly take the next best valid combination of feature
objects (Algorithm 4, see :mod:`repro.core.combinations`) and fetch the
data objects it retrieves from the object R-tree.  ``s(C)`` bounds the
score of every object this and every later combination retrieves, so the
top-k stops as soon as ``k`` objects are known and the next combination
scores below the k-th of them, without ever scoring the rest of the
dataset.  The three score variants share that loop; Section 7 changes
only ``getDataObjects`` (and drops the ``2r`` rule from
``nextCombination`` for the two variants without a range predicate):

* **Range** (Definition 2, Section 6.4): a combination retrieves the
  objects within distance ``r`` of *all* its real members.  Objects
  retrieved for the first time score exactly ``s(C)``, so results come
  out in rank order.
* **Influence** (Definition 6, Algorithm 5): exponential distance decay
  makes ``s(C)`` an upper bound only (attained at distance 0 from every
  member), so a combination retrieves its top-k objects by a best-first
  search on the object R-tree with the members' combined influence score,
  floored at the current k-th score; an object retrieved by several
  combinations keeps its best score.  A distance-aware bound
  (:func:`_combo_influence_bound_cached`) skips most combinations without
  touching the tree.
* **Nearest neighbour** (Definition 7): each feature set contributes the
  score of the object's nearest relevant feature, so a combination
  retrieves the objects whose per-set nearest relevant neighbour is
  exactly its member — the intersection of the members' Voronoi cells
  (built incrementally, with early abort on an empty intersection; see
  :mod:`repro.core.voronoi`).  The cells of each set partition the space,
  so every object belongs to exactly one combination.  Per the paper's
  evaluation (Figures 13-14) the I/O and CPU spent on the cells are
  tracked separately in the query stats (the striped bar segments).

The same retrieval step also drives :func:`stps_stream`, Section 6.2's
incremental delivery: "the remaining data objects p have a score
τ(p) = s(C) and can be returned to the user incrementally".
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Iterator, Sequence

from repro.core.combinations import PULL_PRIORITIZED, CombinationIterator
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import (
    QueryResult,
    QueryStats,
    ResultItem,
    StatsTracker,
    rank_items,
)
from repro.core.voronoi import DATA_SPACE, clip_voronoi_cell
from repro.errors import QueryError
from repro.geometry.polygon import ConvexPolygon
from repro.index.feature_tree import FeatureTree
from repro.index.object_rtree import ObjectRTree
from repro.obs import tracing as _tracing


class _VoronoiRegions:
    """The NN variant's region of a combination: the intersection of its
    real members' relevant-Voronoi cells.  Cells depend only on the
    feature, not the combination, so they are cached per feature across
    combinations — the query-time analogue of the precomputation the
    paper suggests for static data."""

    def __init__(
        self, object_tree, feature_trees, query, stats, tracker, rec
    ) -> None:
        self.feature_trees = feature_trees
        self.scorers = [
            tree.make_scorer(mask, query.lam)
            for tree, mask in zip(feature_trees, query.keyword_masks)
        ]
        # Cells are clipped to a space holding every data object: objects
        # may lie anywhere, so the unit square grows to the object tree's
        # root MBR as it stands for this query (live inserts included).
        space = DATA_SPACE
        if object_tree.count:
            space = space.union(object_tree.root_node().mbr())
        self.space = ConvexPolygon.from_rect(space)
        self.cells: list[dict[int, ConvexPolygon]] = [
            {} for _ in feature_trees
        ]
        self.stats = stats
        self.tracker = tracker
        self.rec = rec

    def region(self, combo) -> ConvexPolygon:
        stats = self.stats
        snapshot = self.tracker.io_snapshot()
        t0 = time.perf_counter()
        with self.rec.span("stps.voronoi_cells"):
            region = self.space
            for i, feature in enumerate(combo.features):
                if feature.is_virtual:
                    continue
                cell = self.cells[i].get(feature.fid)
                if cell is None:
                    cell = clip_voronoi_cell(
                        self.feature_trees[i],
                        self.scorers[i],
                        (feature.x, feature.y),
                        feature.fid,
                        self.space,
                    )
                    self.cells[i][feature.fid] = cell
                    stats.voronoi_cells_computed += 1
                else:
                    stats.voronoi_cell_cache_hits += 1
                region = region.intersection(cell)
                if region.is_empty:
                    stats.voronoi_empty_intersections += 1
                    break
        stats.voronoi_cpu_s += time.perf_counter() - t0
        reads, io_time = self.tracker.io_since(snapshot)
        stats.voronoi_io_reads += reads
        stats.voronoi_io_time_s += io_time
        return region


def _combo_influence_bound_cached(
    features, radius: float, distances: dict
) -> float:
    """Max influence score any point can collect from the real members
    of a combination (``features``, virtual ones ignored).

    For each anchor member ``i`` and any point ``p`` at distance ``u``
    from it, ``dist(p, t_j) >= max(0, d_ij - u)``, so the combination's
    influence score is bounded by

        g_i(u) = s_i 2^{-u/r} + Σ_j s_j 2^{-max(0, d_ij - u)/r}.

    On each interval between breakpoints ``u ∈ {0, d_ij...}`` the function
    is convex, so its maximum over ``u`` is attained at a breakpoint; the
    overall bound is the minimum over anchors.  Far-apart members thus
    bound to ~max(s_i) instead of Σ s_i.

    ``distances`` is the query's cache of member distances: combinations
    share members heavily, so each (slot_i, fid_i, slot_j, fid_j) pair is
    computed once.
    """
    real = [(i, f) for i, f in enumerate(features) if not f.is_virtual]
    if len(real) == 1:
        return real[0][1].score
    cache_get = distances.get
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
                distances[key] = d
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


class _Search:
    """One query's combination loop state: Algorithm 4's iterator and
    the retrieval step of Algorithm 3 under the query's score variant,
    shared by the top-k and the stream."""

    def __init__(
        self, object_tree, feature_trees, query, pulling, stats, rec
    ) -> None:
        self.tracker = StatsTracker(
            [object_tree.pagefile] + [t.pagefile for t in feature_trees]
        )
        variant = query.variant
        self.iterator = CombinationIterator(
            feature_trees, query, enforce_2r=variant is Variant.RANGE,
            pulling=pulling, recorder=rec, stats=stats,
        )
        self.regions = (
            _VoronoiRegions(
                object_tree, feature_trees, query, stats, self.tracker, rec
            )
            if variant is Variant.NEAREST else None
        )
        self.influence = variant is Variant.INFLUENCE
        self.object_tree = object_tree
        self.k = query.k
        self.radius = query.radius
        self.stats = stats
        self.rec = rec
        self.seen: set[int] = set()
        # Influence: member distances, shared by every combination's bound.
        self.distances: dict[tuple[int, int, int, int], float] = {}

    def retrieve(
        self, combo, kth: float = -math.inf
    ) -> list[tuple[float, int, float, float]]:
        """``(score, oid, x, y)`` of the objects ``combo`` retrieves.

        Range and NN: the objects no earlier combination retrieved, by
        ascending oid, each at its exact score ``s(C)``.  Influence: the
        combination's top-k objects at or above ``kth`` (the caller's
        current k-th score; ``-inf`` until it knows k objects), scored
        from its members — none when its bound cannot reach ``kth``.
        """
        if self.influence:
            return self._best_first(combo, kth)
        if self.regions is None:
            entries = self.object_tree.within_all(combo.anchors, self.radius)
        else:
            region = self.regions.region(combo)
            if region.is_empty:
                return []
            entries = self.object_tree.in_polygon(region)
        seen = self.seen
        with self.rec.span("stps.get_data_objects"):
            batch = sorted(
                (e for e in entries if e.oid not in seen), key=lambda e: e.oid
            )
        score = combo.score
        rows = []
        for e in batch:
            seen.add(e.oid)
            rows.append((score, e.oid, e.x, e.y))
        return rows

    def _best_first(self, combo, kth: float):
        radius = self.radius
        if kth > -math.inf and (
            _combo_influence_bound_cached(combo.features, radius, self.distances)
            < kth
        ):
            self.stats.retrievals_skipped += 1
            return []
        members = [
            (f.x, f.y, f.score) for f in combo.features if not f.is_virtual
        ]

        def node_bound(rect) -> float:
            return sum(
                s * 2.0 ** (-rect.mindist((x, y)) / radius)
                for x, y, s in members
            )

        def point_score(px: float, py: float) -> float:
            return sum(
                s * 2.0 ** (-math.hypot(px - x, py - y) / radius)
                for x, y, s in members
            )

        with self.rec.span("stps.get_data_objects"):
            # best_first keeps scores strictly above its floor; back the
            # k-th score off by one ulp so exact ties are retained.
            found = self.object_tree.best_first(
                node_bound, point_score, limit=self.k,
                floor=math.nextafter(kth, -math.inf), ties=True,
            )
        self.seen.update(e.oid for _, e in found)
        return [(score, e.oid, e.x, e.y) for score, e in found]

    def zero_tail(self) -> list[tuple[int, float, float]]:
        """The all-virtual combination: every object not yet retrieved
        scores 0; ``(oid, x, y)`` by ascending oid."""
        seen = self.seen
        with self.rec.span("stps.get_data_objects", tail=True):
            return sorted(
                row for row in self.object_tree.scan() if row[0] not in seen
            )


def stps(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    pulling: str = PULL_PRIORITIZED,
    floor: float = float("-inf"),
    stats: QueryStats | None = None,
) -> QueryResult:
    """Run STPS for ``query.variant`` (range, influence or NN).

    ``floor`` is an externally known lower bound on the global k-th best
    score (the sharded engine's cross-shard threshold).  ``s(C)`` bounds
    the objects of this and every later combination, so the loop stops as
    soon as the next combination scores *strictly* below ``floor`` —
    objects at or above the floor are always reported exactly; objects
    strictly below it may be omitted.  ``stats`` is the accumulator to
    count into (a fresh one when None).
    """
    stats = stats or QueryStats()
    rec = _tracing.recorder()
    search = _Search(object_tree, feature_trees, query, pulling, stats, rec)
    k = query.k
    # oid -> (score, oid, x, y) at the object's best score so far: range
    # and NN retrieve an object once, influence keeps its maximum.
    best: dict[int, tuple[float, int, float, float]] = {}
    # The k-th best score once k objects are known.  It moves only when a
    # retrieval lifts a score above it, so it is recomputed then, not per
    # combination (range and NN: once, when the k-th object arrives).
    kth = -math.inf

    while True:
        combo = search.iterator.next()
        # Strict comparisons: an object can attain s(C), and objects that
        # tie the floor or the k-th score must stay so rank_items can
        # apply the canonical (score desc, oid asc) tie-break over the
        # full tie set.
        if combo is None or combo.score < floor or combo.score < kth:
            break
        if combo.is_all_virtual:
            # Score-0 tail: take the lowest ids (up to k — enough to
            # cover every slot even when the whole result ties at zero).
            for oid, x, y in search.zero_tail()[:k]:
                best[oid] = (0.0, oid, x, y)
            break
        lifted = False
        for row in search.retrieve(combo, kth):
            held = best.get(row[1])
            if held is None or row[0] > held[0]:
                best[row[1]] = row
                lifted = lifted or row[0] > kth
        if lifted and len(best) >= k:
            kth = heapq.nlargest(k, [row[0] for row in best.values()])[-1]

    stats.objects_scored = len(best)
    stats.phase_times = rec.totals()
    result = QueryResult(rank_items(best.values(), k), stats)
    search.tracker.finish(stats)
    return result


def stps_stream(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    pulling: str = PULL_PRIORITIZED,
) -> Iterator[ResultItem]:
    """Yield every data object in rank order, lazily; ignores ``query.k``.

    Reads no more of the indexes than the results consumed need (plus
    the next combination): pagination ("show 10 more") without re-running
    the query.  Ranks are :meth:`QueryProcessor.query`'s — score
    descending, ties by ascending oid: a score level is released once
    the next combination scores lower.  The influence variant raises
    :class:`QueryError`: an object's score there can still improve after
    it is first retrieved.
    """
    if query.variant is Variant.INFLUENCE:
        raise QueryError(
            "the influence variant cannot stream exact ranks incrementally; "
            "use QueryProcessor.query() instead"
        )
    search = _Search(
        object_tree, feature_trees, query, pulling, QueryStats(),
        _tracing.NULL_RECORDER,
    )
    level: list[tuple[int, float, float]] = []
    score = 0.0
    while True:
        combo = search.iterator.next()
        if combo is None:
            break
        if level and combo.score < score:
            level.sort()
            yield from (ResultItem(oid, score, x, y) for oid, x, y in level)
            level.clear()
        score = combo.score
        if combo.is_all_virtual:
            level.extend(search.zero_tail())
            break
        level.extend(row[1:] for row in search.retrieve(combo))
    level.sort()
    yield from (ResultItem(oid, score, x, y) for oid, x, y in level)
