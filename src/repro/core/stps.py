"""Spatio-Textual Preference Search (STPS) — range and nearest-neighbour
scores (Sections 6 and 7.2).

Algorithm 3: repeatedly take the next best valid combination of feature
objects (Algorithm 4, see :mod:`repro.core.combinations`) and fetch the
data objects it retrieves from the object R-tree.  Objects retrieved for
the first time have a spatio-textual preference score exactly equal to
the combination's score — so results come out in rank order, and the
top-k stops as soon as ``k`` objects have been produced, without ever
scoring the rest of the dataset.

* **Range** (Definition 2, Section 6.4): a combination retrieves the
  objects within distance ``r`` of *all* its real members.
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

    def __init__(self, feature_trees, query, stats, tracker, rec) -> None:
        self.feature_trees = feature_trees
        self.scorers = [
            tree.make_scorer(mask, query.lam)
            for tree, mask in zip(feature_trees, query.keyword_masks)
        ]
        self.unit_region = ConvexPolygon.from_rect(DATA_SPACE)
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
            region = self.unit_region
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
                        self.unit_region,
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


class _Search:
    """One query's combination loop state: Algorithm 4's iterator and
    the retrieval step of Algorithm 3, shared by the top-k and the
    stream."""

    def __init__(
        self, object_tree, feature_trees, query, pulling, stats, rec
    ) -> None:
        self.tracker = StatsTracker(
            [object_tree.pagefile] + [t.pagefile for t in feature_trees]
        )
        nearest = query.variant is Variant.NEAREST
        self.iterator = CombinationIterator(
            feature_trees, query, enforce_2r=not nearest, pulling=pulling,
            recorder=rec, stats=stats,
        )
        self.regions = (
            _VoronoiRegions(feature_trees, query, stats, self.tracker, rec)
            if nearest else None
        )
        self.object_tree = object_tree
        self.radius = query.radius
        self.rec = rec
        self.seen: set[int] = set()

    def retrieve(self, combo) -> list:
        """The objects ``combo`` retrieves that no earlier one did, by
        ascending oid; each now has its exact score ``s(C)``."""
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
        for e in batch:
            seen.add(e.oid)
        return batch

    def zero_tail(self) -> list[tuple[int, float, float]]:
        """The all-virtual combination: every object not yet retrieved
        scores 0; ``(oid, x, y)`` by ascending oid."""
        seen = self.seen
        with self.rec.span("stps.get_data_objects", tail=True):
            return sorted(
                row for row in self.object_tree.scan() if row[0] not in seen
            )


def _top_k(object_tree, feature_trees, query, pulling, floor, stats):
    stats = stats or QueryStats()
    rec = _tracing.recorder()
    search = _Search(object_tree, feature_trees, query, pulling, stats, rec)
    iterator = search.iterator
    collected: list[tuple[float, int, float, float]] = []

    while True:
        combo = iterator.next()
        if combo is None:
            break
        if combo.score < floor:
            # Scores are non-increasing: nothing below the external floor
            # can reach the caller's merged top-k (ties at the floor are
            # still processed).
            break
        # Tie-complete cutoff: once k objects are known, keep draining
        # combinations that *tie* the k-th score so rank_items can apply
        # the canonical (score desc, oid asc) tie-break over the full tie
        # set — stopping at len == k would keep an arbitrary
        # retrieval-order subset of the tied objects instead.
        if (
            len(collected) >= query.k
            and combo.score < collected[query.k - 1][0]
        ):
            break
        if combo.is_all_virtual:
            # Score-0 tail: take the lowest ids (up to k — enough to
            # cover every slot even when the whole result ties at zero).
            for oid, x, y in search.zero_tail()[: query.k]:
                collected.append((0.0, oid, x, y))
            break
        for e in search.retrieve(combo):
            collected.append((combo.score, e.oid, e.x, e.y))

    stats.objects_scored = len(collected)
    stats.phase_times = rec.totals()
    result = QueryResult(rank_items(collected, query.k), stats)
    search.tracker.finish(stats)
    return result


def stps(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    pulling: str = PULL_PRIORITIZED,
    floor: float = float("-inf"),
    stats: QueryStats | None = None,
) -> QueryResult:
    """Run STPS for the range score variant (Definition 2).

    ``floor`` is an externally known lower bound on the global k-th best
    score (the sharded engine's cross-shard threshold).  Combinations
    stream in descending score order, so the loop stops as soon as the
    next combination scores *strictly* below ``floor`` — objects at or
    above the floor are always reported exactly; objects strictly below
    it may be omitted.  ``stats`` is the accumulator to count into (a
    fresh one when None).
    """
    if query.variant is not Variant.RANGE:
        raise QueryError(
            f"stps() handles the range variant; got {query.variant}. "
            "Use stps_influence() / stps_nearest() or the QueryProcessor."
        )
    return _top_k(object_tree, feature_trees, query, pulling, floor, stats)


def stps_nearest(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    pulling: str = PULL_PRIORITIZED,
    floor: float = float("-inf"),
    stats: QueryStats | None = None,
) -> QueryResult:
    """Run STPS for the nearest-neighbour score variant (Definition 7);
    ``floor`` and ``stats`` as in :func:`stps`."""
    if query.variant is not Variant.NEAREST:
        raise QueryError(f"stps_nearest() got variant {query.variant}")
    return _top_k(object_tree, feature_trees, query, pulling, floor, stats)


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
        level.extend((e.oid, e.x, e.y) for e in search.retrieve(combo))
    level.sort()
    yield from (ResultItem(oid, score, x, y) for oid, x, y in level)
