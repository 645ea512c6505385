"""Influence Score Search (ISS) — an exact extension algorithm.

Algorithm 5 (STPS for the influence score) must examine *every*
combination of feature objects whose summed score exceeds the running
k-th object score, because without the ``2r`` validity filter the
combination space does not shrink; its cost therefore grows with the
product of the per-set candidate counts (painful for ``c >= 3``).

ISS avoids combinations altogether: it runs one best-first search over
the *object* R-tree, bounding every object-tree entry ``e`` by

    bound(e) = Σ_i  max_t∈F_i  s(t) · 2^(−mindist(e, t)/r)

where each per-set term is obtained by a nested best-first probe of that
feature index (priority ``ŝ(e_f)·2^(−mindist(e_o, e_f)/r)``; the first
feature object popped realizes the max).  Object-tree leaves evaluate the
exact score ``τ(p)``, so popping leaves in bound order yields the exact
top-k — the same answers as Algorithm 5, verified in the tests.

Cost: at most ``|O|·c`` probes (a batched scan) and usually fewer — the
bounds prune whole subtrees when the object tree's leaf MBRs are fine
relative to the influence field (small pages / tight clusters).  Either
way it is linear in ``c``, whereas Algorithm 5's combination count grows
with the product of the per-set candidate list sizes.

This is *not* an algorithm of the paper; DESIGN.md lists it as an
extension, and ``ablation_influence_algo`` measures it against the
paper's STPS.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, StatsTracker, rank_items
from repro.errors import QueryError
from repro.index.feature_tree import FeatureTree
from repro.index.nodes import FeatureLeafEntry, ObjectLeafEntry
from repro.index.object_rtree import ObjectRTree
from repro.obs import tracing as _tracing


def influence_search(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    stats: QueryStats | None = None,
) -> QueryResult:
    """Exact top-k influence query without combination enumeration."""
    if query.variant is not Variant.INFLUENCE:
        raise QueryError(f"influence_search() got variant {query.variant}")
    if len(feature_trees) != query.c:
        raise QueryError(
            f"query addresses {query.c} feature sets, processor has "
            f"{len(feature_trees)}"
        )
    tracker = StatsTracker(
        [object_tree.pagefile] + [t.pagefile for t in feature_trees]
    )
    stats = stats or QueryStats()
    scorers = [
        tree.make_scorer(mask, query.lam)
        for tree, mask in zip(feature_trees, query.keyword_masks)
    ]
    radius = query.radius

    def entry_bound(rect_or_point, is_point: bool) -> float:
        total = 0.0
        for tree, scorer in zip(feature_trees, scorers):
            total += _set_influence_bound(
                tree, scorer, rect_or_point, is_point, radius
            )
        return total

    # Lazy-refinement best-first search: entries enter the heap with
    # their parent's bound (free) and are re-pushed with their own bound
    # only when they reach the top, so exact per-point evaluations happen
    # only for actual top-k contenders.
    rec = _tracing.recorder()
    collected: list[tuple[float, int, float, float]] = []
    if object_tree.root_id is not None and object_tree.count > 0:
        heap: list[tuple[float, int, bool, object]] = []
        counter = 0
        rec_active = rec.active
        root_bound = sum(
            (1.0 - query.lam) + query.lam for _ in feature_trees
        )  # trivially >= c; refined on first pop

        def push(entry, bound: float, refined: bool) -> None:
            nonlocal counter
            counter += 1
            heapq.heappush(heap, (-bound, counter, refined, entry))

        with rec.span("iss.search"):
            for e in object_tree.root_node().entries:
                push(e, root_bound, False)
            while heap:
                # Tie-complete cutoff: keep draining entries whose bound
                # ties the k-th exact score so rank_items can break the
                # full tie set canonically by oid (heap order is
                # insertion order, not oid order).
                if len(collected) >= query.k and (
                    -heap[0][0] < collected[query.k - 1][0]
                ):
                    break
                neg_bound, _, refined, entry = heapq.heappop(heap)
                is_point = isinstance(entry, ObjectLeafEntry)
                if not refined:
                    if rec_active:
                        with rec.span("iss.bound_probe", point=is_point):
                            bound = entry_bound(
                                (entry.x, entry.y) if is_point else entry.rect,
                                is_point,
                            )
                    else:
                        bound = entry_bound(
                            (entry.x, entry.y) if is_point else entry.rect,
                            is_point,
                        )
                    if is_point:
                        stats.iss_probes_point += 1
                    else:
                        stats.iss_probes_node += 1
                    push(entry, bound, True)
                    continue
                if is_point:
                    # Refined point priorities are exact scores, so pops
                    # are in final rank order.
                    collected.append(
                        (-neg_bound, entry.oid, entry.x, entry.y)
                    )
                else:
                    for child_entry in object_tree.read_node(
                        entry.child
                    ).entries:
                        push(child_entry, -neg_bound, False)

    stats.objects_scored = stats.iss_probes_point  # a probed point is scored
    stats.phase_times = rec.totals()
    result = QueryResult(rank_items(collected, query.k), stats)
    tracker.finish(stats)
    return result


def _set_influence_bound(
    tree: FeatureTree,
    scorer,
    rect_or_point,
    is_point: bool,
    radius: float,
) -> float:
    """``max_t s(t)·2^(−mindist(target, t)/r)`` over one feature set.

    Best-first on the feature index with influence-bound priorities; the
    first feature object popped attains the set maximum (for a rect
    target, of the optimistic mindist bound — still an upper bound for
    every point in the rect, which is what the caller needs).
    """
    if tree.root_id is None or tree.count == 0:
        return 0.0
    heap: list[tuple[float, int, object]] = []
    counter = 0

    if is_point:
        px, py = rect_or_point

        def dist_to(entry, leaf: bool) -> float:
            if leaf:
                return math.hypot(entry.x - px, entry.y - py)
            return entry.rect.mindist((px, py))

    else:
        rect = rect_or_point

        def dist_to(entry, leaf: bool) -> float:
            if leaf:
                return rect.mindist((entry.x, entry.y))
            return rect.mindist_rect(entry.rect)

    def push(node) -> None:
        nonlocal counter
        for e in node.entries:
            if not scorer.relevant(e):
                continue
            base = (
                scorer.leaf_score(e) if node.is_leaf else scorer.node_bound(e)
            )
            value = base * 2.0 ** (-dist_to(e, node.is_leaf) / radius)
            counter += 1
            heapq.heappush(heap, (-value, counter, e))

    push(tree.read_node(tree.root_id))
    while heap:
        neg_value, _, entry = heapq.heappop(heap)
        if isinstance(entry, FeatureLeafEntry):
            return -neg_value
        push(tree.read_node(entry.child))
    return 0.0
