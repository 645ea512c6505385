"""STPS for the nearest-neighbor score variant (Section 7.2).

Definition 7: each feature set contributes the score of the data object's
nearest relevant feature.  STPS consequently retrieves, for each
combination ``C``, the data objects whose per-set nearest relevant
neighbor is exactly the corresponding member of ``C`` — the intersection
of the members' Voronoi cells (built incrementally, with early abort on
an empty intersection; see :mod:`repro.core.voronoi`).

Because the relevant-Voronoi cells of each feature set partition the data
space, every data object belongs to exactly one combination, so the
objects of each popped combination carry its exact score and the loop
stops once ``k`` objects are collected.

Per the paper's evaluation (Figures 13-14), the I/O and CPU spent on
Voronoi-cell computation are tracked separately in the query stats (the
striped bar segments).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.core.combinations import PULL_PRIORITIZED, CombinationIterator
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, StatsTracker, rank_items
from repro.core.voronoi import DATA_SPACE, clip_voronoi_cell
from repro.errors import QueryError
from repro.geometry.polygon import ConvexPolygon
from repro.index.feature_tree import FeatureTree
from repro.index.object_rtree import ObjectRTree
from repro.obs import tracing as _tracing


def stps_nearest(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    pulling: str = PULL_PRIORITIZED,
    floor: float = float("-inf"),
    stats: QueryStats | None = None,
) -> QueryResult:
    """Run STPS for the nearest-neighbor score variant.

    ``floor`` — see :func:`repro.core.stps.stps`: combinations scoring
    strictly below it are never expanded (their objects cannot reach the
    caller's merged top-k); ties at the floor are still processed.
    """
    if query.variant is not Variant.NEAREST:
        raise QueryError(f"stps_nearest() got variant {query.variant}")
    tracker = StatsTracker(
        [object_tree.pagefile] + [t.pagefile for t in feature_trees]
    )
    stats = stats or QueryStats()
    rec = _tracing.recorder()
    iterator = CombinationIterator(
        feature_trees, query, enforce_2r=False, pulling=pulling, recorder=rec,
        stats=stats,
    )
    scorers = [
        tree.make_scorer(mask, query.lam)
        for tree, mask in zip(feature_trees, query.keyword_masks)
    ]
    unit_region = ConvexPolygon.from_rect(DATA_SPACE)
    cell_caches: list[dict[int, ConvexPolygon]] = [{} for _ in feature_trees]
    seen: set[int] = set()
    collected: list[tuple[float, int, float, float]] = []

    while True:
        combo = iterator.next()
        if combo is None:
            break
        if combo.score < floor:
            break  # descending scores: nothing below the floor can rank
        # Tie-complete cutoff (see repro.core.stps.stps): drain every
        # combination tying the k-th collected score so rank_items sees
        # the full tie set and can break ties canonically by oid.
        if (
            len(collected) >= query.k
            and combo.score < collected[query.k - 1][0]
        ):
            break
        if combo.is_all_virtual:
            remaining = sorted(
                (e.oid, e.x, e.y)
                for e in object_tree.all_entries()
                if e.oid not in seen
            )
            for oid, x, y in remaining[: query.k]:
                seen.add(oid)
                collected.append((0.0, oid, x, y))
            break

        # Voronoi intersection (cost tracked separately).  Cells depend
        # only on the feature, not the combination, so they are cached
        # per feature across combinations — the query-time analogue of
        # the precomputation the paper suggests for static data.
        vor_snapshot = tracker.io_snapshot()
        vor_t0 = time.perf_counter()
        vor_span = rec.span("stps.voronoi_cells")
        vor_span.__enter__()
        region = unit_region
        for i, feature in enumerate(combo.features):
            if feature.is_virtual:
                continue
            cell = cell_caches[i].get(feature.fid)
            if cell is None:
                cell = clip_voronoi_cell(
                    feature_trees[i],
                    scorers[i],
                    (feature.x, feature.y),
                    feature.fid,
                    unit_region,
                )
                cell_caches[i][feature.fid] = cell
                stats.voronoi_cells_computed += 1
            else:
                stats.voronoi_cell_cache_hits += 1
            region = region.intersection(cell)
            if region.is_empty:
                stats.voronoi_empty_intersections += 1
                break
        vor_span.__exit__(None, None, None)
        stats.voronoi_cpu_s += time.perf_counter() - vor_t0
        vor_reads, vor_io_time = tracker.io_since(vor_snapshot)
        stats.voronoi_io_reads += vor_reads
        stats.voronoi_io_time_s += vor_io_time
        if region.is_empty:
            continue

        with rec.span("stps.get_data_objects"):
            batch = sorted(
                (e for e in object_tree.in_polygon(region)
                 if e.oid not in seen),
                key=lambda e: e.oid,
            )
        for e in batch:
            seen.add(e.oid)
            collected.append((combo.score, e.oid, e.x, e.y))

    stats.objects_scored = len(collected)
    stats.phase_times = rec.totals()
    result = QueryResult(rank_items(collected, query.k), stats)
    tracker.finish(stats)
    return result
