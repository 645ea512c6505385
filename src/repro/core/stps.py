"""Spatio-Textual Preference Search (STPS) — Sections 6 and 7.

Algorithm 3: repeatedly take the next best valid combination of feature
objects (Algorithm 4, see :mod:`repro.core.combinations`) and fetch the
data objects it retrieves from the object R-tree.  ``s(C)`` bounds the
score of every object this and every later combination retrieves, so the
top-k stops as soon as ``k`` objects are known and the next combination
scores below the k-th of them, without ever scoring the rest of the
dataset.

The three score variants share that loop: Section 7 changes only
``getDataObjects``, and drops the ``2r`` rule from ``nextCombination``
for the two variants without a range predicate.  So each variant is one
small class (:class:`_Range`, :class:`_Influence`, :class:`_Nearest`)
that answers the questions the loop and the join ask, and
:data:`_VARIANTS` picks one per query.

The same retrieval step also drives :func:`stps_stream`, Section 6.2's
incremental delivery: "the remaining data objects p have a score
τ(p) = s(C) and can be returned to the user incrementally".
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections.abc import Iterable, Iterator, Sequence

from repro.core.combinations import CombinationIterator
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


class _Variant:
    """A score variant answers which pulled features partner an arrival
    (:meth:`partners`), whether a popped tuple is valid (:meth:`valid`),
    what a combination retrieves given the current k-th score ``kth``
    (``retrieve(combo, kth)`` → ``(score, oid, x, y)`` rows) and whether
    ranks can stream.  Without a range predicate, every pulled feature
    partners an arrival and every tuple is valid."""

    #: An object's score is final when it is first retrieved, so
    #: :func:`stps_stream` can release ranks incrementally.
    exact_ranks = True

    def __init__(self, object_tree, feature_trees, query, stats, tracker, rec):
        self.object_tree = object_tree
        self.feature_trees = feature_trees
        self.query = query
        self.stats = stats
        self.tracker = tracker
        self.rec = rec
        self.seen: set[int] = set()

    def partners(self, pulled, i: int, arrival) -> Iterable[list]:
        """Per sub-lattice an ``arrival`` in set ``i`` heads, the partner
        list of each set: the features of ``pulled`` that can join it.
        A set with no partner yet forms no tuple."""
        lists = pulled.copy()
        lists[i] = (arrival,)
        return (lists,) if all(lists) else ()

    def valid(self, combo) -> bool:
        return True

    def _fresh(self, entries, score: float):
        """The ``entries`` no earlier combination retrieved, by ascending
        oid, each at the exact score ``score``."""
        seen = self.seen
        with self.rec.span("stps.get_data_objects"):
            batch = sorted(
                (e for e in entries if e.oid not in seen), key=lambda e: e.oid
            )
        seen.update(e.oid for e in batch)
        return [(score, e.oid, e.x, e.y) for e in batch]

    def zero_tail(self) -> list[tuple[int, float, float]]:
        """The all-virtual combination: every object not yet retrieved
        scores 0; ``(oid, x, y)`` by ascending oid."""
        seen = self.seen
        with self.rec.span("stps.get_data_objects", tail=True):
            return sorted(
                row for row in self.object_tree.scan() if row[0] not in seen
            )


class _Range(_Variant):
    """Definition 2: a combination retrieves the objects within ``r`` of
    all its real members, each at exactly ``s(C)``, so results come out
    in rank order.  Only members pairwise within ``2r`` can share such
    an object (Lemma 1): that is the join's partner rule and validity.

    Partners come from a miss-first hash grid: ``_near[j][cell]`` holds
    set j's pulled features that may lie within ``2r`` of ``cell``, in
    pull order, each filed under every cell its ``reach``-interval
    touches (``reach`` is a hair over ``2r``, clamped so the cell
    arithmetic cannot overflow).  ``floor(v * inv)`` is monotone in
    ``v``, so the grid never hides a partner from the exact ``hypot``
    predicate, which alone decides validity."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._diameter = 2.0 * self.query.radius
        self._reach = min(max(self._diameter, 1e-6), 1e150) * (1.0 + 1e-9)
        self._inv = 0.5 / self._reach
        self._near: list[dict] = [{} for _ in range(self.query.c)]

    def partners(self, pulled, i: int, arrival) -> Iterable[list]:
        """File a real ``arrival`` in set ``i``'s grid, then draw every
        other set's partners from the grid around the tuple's anchor."""
        if not arrival.is_virtual:
            near = self._near[i]
            inv = self._inv
            reach = self._reach
            floor = math.floor
            x, y = arrival.x, arrival.y
            cy0 = floor((y - reach) * inv)
            cy1 = floor((y + reach) * inv) + 1
            for cx in range(floor((x - reach) * inv), floor((x + reach) * inv) + 1):
                for cy in range(cy0, cy1):
                    cell = near.get((cx, cy))
                    if cell is None:
                        near[cx, cy] = [arrival]
                    else:
                        cell.append(arrival)
        lists: list = [None] * len(pulled)
        lists[i] = (arrival,)
        return self._lattices(pulled, lists, arrival, 0, [])

    def _lattices(self, pulled, lists: list, anchor, start: int, out: list):
        """Append to ``out`` every fill of ``lists[start:]`` around
        ``anchor``, the tuple's fixed member (``∅`` while none is real)."""
        for j in range(start, len(lists)):
            if lists[j] is not None:
                continue  # the arriving feature's own set
            if anchor.is_virtual:
                # No real member yet, so nothing to probe around: every
                # pulled feature of set j heads its own sub-lattice — a
                # real one as the anchor, ∅ passing the search on.
                for feature in pulled[j]:
                    branch = lists.copy()
                    branch[j] = (feature,)
                    self._lattices(pulled, branch, feature, j + 1, out)
                return out
            lists[j] = self._neighbours(pulled[j], j, anchor)
            if not lists[j]:
                return out
        out.append(lists)
        return out

    def _neighbours(self, pulled, j: int, anchor) -> list:
        """Set ``j``'s pulled features within ``2r`` of ``anchor``, best
        first, followed by its ``∅`` once the stream has delivered it."""
        x, y = anchor.x, anchor.y
        inv = self._inv
        near = self._near[j].get((math.floor(x * inv), math.floor(y * inv)))
        diameter = self._diameter
        # Filed in pull order = non-increasing score.  Most arrivals miss.
        out = [] if near is None else [
            f for f in near if not math.hypot(x - f.x, y - f.y) > diameter
        ]
        if pulled and pulled[-1].is_virtual:
            out.append(pulled[-1])
        return out

    def valid(self, combo) -> bool:
        diameter = self._diameter
        real = [f for f in combo.features if not f.is_virtual]
        return not any(
            math.hypot(a.x - b.x, a.y - b.y) > diameter
            for a, b in itertools.combinations(real, 2)
        )

    def retrieve(self, combo, kth: float):
        entries = self.object_tree.within_all(combo.anchors, self.query.radius)
        return self._fresh(entries, combo.score)


class _Influence(_Variant):
    """Definition 6, Algorithm 5: exponential distance decay makes
    ``s(C)`` an upper bound only, so a combination retrieves its top-k
    objects at or above the k-th score by a best-first search on the
    object R-tree; an object keeps its best score over combinations, so
    ranks cannot stream.  A distance-aware bound
    (:func:`_combo_influence_bound_cached`) skips most combinations."""

    exact_ranks = False

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Member distances, shared by every combination's bound.
        self.distances: dict[tuple[int, int, int, int], float] = {}

    def retrieve(self, combo, kth: float):
        radius = self.query.radius
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
                node_bound, point_score, limit=self.query.k,
                floor=math.nextafter(kth, -math.inf), ties=True,
            )
        self.seen.update(e.oid for _, e in found)
        return [(score, e.oid, e.x, e.y) for score, e in found]


class _Nearest(_Variant):
    """Definition 7: a combination retrieves the objects whose per-set
    nearest relevant feature is exactly its member — the intersection of
    the members' relevant-Voronoi cells (built incrementally, with early
    abort on an empty intersection; see :mod:`repro.core.voronoi`).  A
    set's cells partition the space, so each object is retrieved once.
    Cells depend only on the feature, so they are cached across
    combinations — the query-time analogue of the precomputation the
    paper suggests for static data.  Their I/O and CPU are counted
    apart, as the striped bars of Figures 13-14."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.scorers = [
            tree.make_scorer(mask, self.query.lam)
            for tree, mask in zip(self.feature_trees, self.query.keyword_masks)
        ]
        # Cells are clipped to a space holding every data object: objects
        # may lie anywhere, so the unit square grows to the object tree's
        # root MBR as it stands for this query (live inserts included).
        space = DATA_SPACE
        if self.object_tree.count:
            space = space.union(self.object_tree.root_node().mbr())
        self.space = ConvexPolygon.from_rect(space)
        self.cells: list[dict[int, ConvexPolygon]] = [{} for _ in self.feature_trees]

    def retrieve(self, combo, kth: float):
        region = self._region(combo)
        if region.is_empty:
            return []
        return self._fresh(self.object_tree.in_polygon(region), combo.score)

    def _region(self, combo) -> ConvexPolygon:
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
                        self.feature_trees[i], self.scorers[i],
                        (feature.x, feature.y), feature.fid, self.space,
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


#: The one place a query's score variant picks its object.
_VARIANTS = {
    Variant.RANGE: _Range,
    Variant.INFLUENCE: _Influence,
    Variant.NEAREST: _Nearest,
}


class _Search:
    """One query's loop state, shared by the top-k and the stream: its
    variant object, and Algorithm 4's iterator joining by its rule."""

    def __init__(self, object_tree, feature_trees, query, stats, rec) -> None:
        self.tracker = StatsTracker(
            [object_tree.pagefile] + [t.pagefile for t in feature_trees]
        )
        self.variant = _VARIANTS[query.variant](
            object_tree, feature_trees, query, stats, self.tracker, rec
        )
        self.iterator = CombinationIterator(
            feature_trees, query, self.variant, recorder=rec, stats=stats
        )


def stps(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
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
    search = _Search(object_tree, feature_trees, query, stats, rec)
    variant = search.variant
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
            for oid, x, y in variant.zero_tail()[:k]:
                best[oid] = (0.0, oid, x, y)
            break
        lifted = False
        for row in variant.retrieve(combo, kth):
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
) -> Iterator[ResultItem]:
    """Yield every data object in rank order, lazily; ignores ``query.k``.

    Reads no more of the indexes than the results consumed need (plus
    the next combination): pagination ("show 10 more") without re-running
    the query.  Ranks are :meth:`QueryProcessor.query`'s — score
    descending, ties by ascending oid: a score level is released once
    the next combination scores lower.  A variant without exact ranks
    (influence) raises :class:`QueryError`: an object's score there can
    still improve after it is first retrieved.
    """
    search = _Search(
        object_tree, feature_trees, query, QueryStats(),
        _tracing.NULL_RECORDER,
    )
    variant = search.variant
    if not variant.exact_ranks:
        raise QueryError(
            f"the {query.variant.value} variant cannot stream exact ranks "
            "incrementally; use QueryProcessor.query() instead"
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
            level.extend(variant.zero_tail())
            break
        level.extend(row[1:] for row in variant.retrieve(combo, -math.inf))
    level.sort()
    yield from (ResultItem(oid, score, x, y) for oid, x, y in level)
