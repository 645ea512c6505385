"""Influence Score Search (ISS) — an exact extension algorithm.

Algorithm 5 (STPS for the influence score) must examine *every*
combination of feature objects whose summed score exceeds the running
k-th object score, because without the ``2r`` validity filter the
combination space does not shrink; its cost therefore grows with the
product of the per-set candidate counts (painful for ``c >= 3``).

ISS avoids combinations altogether: it runs one best-first search over
the *object* R-tree, bounding every object-tree entry ``e`` by

    bound(e) = Σ_i  max_t∈F_i  s(t) · 2^(−mindist(e, t)/r)

where each per-set term is STDS's ``compute_score`` with the entry's
rectangle as target: the first yield of :func:`repro.core.stream.probe`
under the influence priority (``ŝ(e_f)·2^(−mindist(e_o, e_f)/r)``).
Object-tree leaves evaluate the exact score ``τ(p)`` by the same probe
from the point, so popping leaves in bound order yields the exact top-k
— the same answers as Algorithm 5, verified in the tests.

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
from collections.abc import Sequence

from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, StatsTracker, rank_items
from repro.core.stds import score_object
from repro.errors import QueryError
from repro.index.feature_tree import FeatureTree
from repro.index.nodes import ObjectLeafEntry
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

    # Lazy-refinement best-first search: entries enter the heap with
    # their parent's bound (free) and are re-pushed with their own bound
    # only when they reach the top, so exact per-point evaluations happen
    # only for actual top-k contenders.
    rec = _tracing.recorder()
    collected: list[tuple[float, int, float, float]] = []
    if object_tree.root_id is not None and object_tree.count > 0:
        heap: list[tuple[float, int, bool, object]] = []
        counter = 0
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
                    with rec.span("iss.bound_probe", point=is_point):
                        bound = score_object(
                            feature_trees, query,
                            (entry.x, entry.y) if is_point else entry.rect,
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
