"""Spatio-Textual Preference Search (STPS) — range score (Section 6).

Algorithm 3: repeatedly take the next best valid combination of feature
objects (Algorithm 4, see :mod:`repro.core.combinations`) and fetch the
data objects lying within distance ``r`` of *all* its real members from
the object R-tree (Section 6.4).  Objects retrieved for the first time
have a spatio-textual preference score exactly equal to the combination's
score — so results stream out in rank order and the algorithm stops as
soon as ``k`` objects have been produced, without ever scoring the rest
of the dataset.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.combinations import PULL_PRIORITIZED, CombinationIterator
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, StatsTracker, rank_items
from repro.errors import QueryError
from repro.index.feature_tree import FeatureTree
from repro.index.object_rtree import ObjectRTree
from repro.obs import tracing as _tracing

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
    tracker = StatsTracker(
        [object_tree.pagefile] + [t.pagefile for t in feature_trees]
    )
    stats = stats or QueryStats()
    rec = _tracing.recorder()
    iterator = CombinationIterator(
        feature_trees, query, enforce_2r=True, pulling=pulling, recorder=rec,
        stats=stats,
    )
    seen: set[int] = set()
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
            # Score-0 tail: any remaining object qualifies; take the
            # lowest ids (up to k — enough to cover every slot even when
            # the whole result ties at zero).
            with rec.span("stps.get_data_objects", tail=True):
                remaining = sorted(
                    row for row in object_tree.scan() if row[0] not in seen
                )
            for oid, x, y in remaining[: query.k]:
                seen.add(oid)
                collected.append((0.0, oid, x, y))
            break
        with rec.span("stps.get_data_objects"):
            batch = sorted(
                (e for e in object_tree.within_all(combo.anchors, query.radius)
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
