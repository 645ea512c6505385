"""Spatio-Textual Data Scan (STDS) — the paper's baseline (Section 5).

Algorithm 1: scan every data object, compute its score ``τ_i(p)`` against
each feature set with Algorithm 2, keep the top-k.  An upper bound
``τ̂(p)`` (known partial scores + 1 per unknown set) lets the scan skip
remaining feature sets once an object can no longer reach the top-k.

Algorithm 2 (``compute_score``): best-first traversal of the feature
index ordered by ``ŝ(e)``; prune entries out of range or textually
irrelevant; the first feature object popped within range is the answer —
the sorted access plus the upper-bound property make that maximal.  The
Section 7 adaptations (influence / nearest-neighbor) re-prioritize the
same traversal and drop the range predicate, exactly as described; all
three are the one walk :func:`repro.core.stream.probe`, which
``compute_score`` takes the first feature of.

The paper's evaluation uses the *batched* improvement (end of Section 5)
for the range variant: one traversal per feature set serves a whole set
of pending objects; an entry is expanded when at least one pending object
is in range, and a popped feature resolves every pending object in its
range.  We batch in chunks so Algorithm 1's threshold pruning still kicks
in between chunks.

Performance notes (not part of the paper's algorithms):

* a leaf is scored once per query as a sorted run of its relevant rows
  (``FeatureTree.leaf_run``, over the columnar arrays of
  :mod:`repro.index.leafdata`), which every chunk that reopens the leaf
  reuses;
* the batched traversal takes each decision at the earliest point at
  which it is already final, because its pending set only ever shrinks
  (:func:`compute_scores_batch` says why none of it can change a score
  or an expansion): an entry out of reach of the pending set's bounding
  box is pruned when its parent opens, an opened leaf is one heap entry
  re-keyed per feature taken, and the scan ends when every object left
  is doomed.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections.abc import Sequence

import numpy as np

from repro.core.grid import SpatialGrid
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, StatsTracker, rank_items
from repro.core.stream import probe
from repro.errors import QueryError
from repro.geometry.rect import Rect
from repro.index.feature_tree import FeatureTree
from repro.index.object_rtree import ObjectRTree
from repro.obs.explain import FeatureSetDiag
from repro.obs import tracing as _tracing

logger = logging.getLogger(__name__)

DEFAULT_BATCH_SIZE = 1024


# ----------------------------------------------------------------------
# Algorithm 2 and its variant adaptations: single-object score
# ----------------------------------------------------------------------
def compute_score(
    tree: FeatureTree,
    query: PreferenceQuery,
    mask: int,
    target: tuple[float, float] | Rect,
    stats: FeatureSetDiag | None = None,
) -> float:
    """``τ_i(p)`` for one object and one feature set, under the query's
    variant: the first feature :func:`~repro.core.stream.probe` yields,
    or 0.0 when no relevant feature qualifies.  An influence query also
    takes a rectangle, for which it bounds ``τ_i`` at every point inside.

    ``stats`` is the set's record in the query's accumulator: the
    traversal's heap pops and node visits."""
    scorer = tree.make_scorer(mask, query.lam)
    for _, value, _, _, _ in probe(
        tree, scorer, target, query.variant, query.radius, stats
    ):
        return value
    return 0.0


def score_object(
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    target: tuple[float, float] | Rect,
) -> float:
    """``τ(p) = Σ_i τ_i(p)`` of one location, under the query's variant
    (or, as :func:`compute_score`, its bound over a rectangle)."""
    return sum(
        (
            compute_score(tree, query, mask, target)
            for tree, mask in zip(feature_trees, query.keyword_masks)
        ),
        0.0,
    )


# ----------------------------------------------------------------------
# batched Algorithm 2 (range variant)
# ----------------------------------------------------------------------
#: Safety margin for the early-drop rule in :func:`compute_scores_batch`.
#: Must exceed the worst-case rounding error of a ``c``-term partial-sum
#: (≈ ``c`` ulps of 1.0 ≈ 1e-15) by a wide margin.
_DROP_EPS = 1e-9


def compute_scores_batch(
    tree: FeatureTree,
    query: PreferenceQuery,
    mask: int,
    pending: dict[int, tuple[float, float]],
    stats: FeatureSetDiag | None = None,
    partial: dict[int, float] | None = None,
    threshold: float = -math.inf,
    remaining_sets: int = 0,
) -> dict[int, float]:
    """``τ_i(p)`` for a batch of objects in one index traversal.

    ``pending`` maps oid -> (x, y).  Returns oid -> score; objects with no
    relevant in-range feature get 0.0.  Scores depend only on the object
    location and the tree, never on the other batch members — the batch
    only shares traversal work.

    When the caller's threshold fold state (``partial``, ``threshold``,
    ``remaining_sets``) is supplied, the drain additionally drops pending
    objects that can no longer reach the top-k: best-first pop bounds are
    non-increasing, so once the popped bound ``b`` satisfies
    ``partial[p] + b + remaining_sets < threshold`` (strictly), object
    ``p``'s final aggregate is strictly below the final k-th score no
    matter how it resolves, and every later candidate filter discards it
    either way — dropping it early changes only work, never results.

    The pending set only shrinks (objects resolve or are dropped, none
    arrives), so a "no pending object can be near" answer is final the
    moment it is true.  Three shortcuts rest on that, and none can change
    a score or an expansion:

    * an internal entry farther than ``r`` from the pending set's
      bounding box is pruned when its parent opens.  The pop-time test
      would reject it too — the box still contains every pending object
      then — and a rejected entry contributes nothing, so the entries
      that *are* expanded, and their order, are untouched;
    * an opened leaf is one heap entry over its sorted run, re-keyed on
      the next score per feature taken, with one tie-break counter
      reserved per run position: features pop in exactly the order of a
      heap holding each by itself, but those the scan never reaches are
      never pushed;
    * when every pending object's ``needed`` exceeds the popped bound,
      all of them are doomed at once and the scan ends — what the
      one-by-one drops would have left is an empty pending set, on
      which the loop ends anyway.
    """
    scores = dict.fromkeys(pending, 0.0)
    if tree.root_id is None or tree.count == 0 or not pending:
        return scores
    stats = stats or FeatureSetDiag(0)
    # Pruned ``ŝ(e)`` values are plan detail: summarised only on request.
    pruned_bounds = stats.pruned_bounds
    radius = query.radius
    scorer = tree.make_scorer(mask, query.lam)
    # The pending set lives in a uniform grid (cell size ``r``): "who is
    # within range of this popped feature" and "is any pending object near
    # this rectangle" run in expected O(1) per candidate.
    grid = SpatialGrid(max(radius, 1e-6))
    grid.bulk_insert(pending)
    pop_within = grid.pop_within
    any_near_rect = grid.any_near_rect
    out_of_reach = grid.out_of_reach
    grid_discard = grid.discard

    # Drop cursor: the objects by decreasing ``needed = threshold -
    # remaining - τ̂`` (keys negated, like the heap's).  An object is
    # doomed once the pop bound falls strictly below its ``needed``, and
    # pop bounds only fall, so the doomed are always a prefix.
    # ``_DROP_EPS`` keeps the test conservative under floating point:
    # rearranged sums differ from the fold's own accumulation by ~1e-16,
    # so backing the cut off by 1e-9 can only *shrink* the drop set —
    # never drop an object whose exact aggregate ties the k-th score.
    drop_keys: list[float] = []
    drop_oids: list[int] = []
    if partial is not None and threshold > -math.inf:
        slack = threshold - remaining_sets - _DROP_EPS
        needed = slack - np.fromiter(
            map(partial.__getitem__, pending), np.float64, len(pending)
        )
        order = np.argsort(-needed, kind="stable")
        order = order[: np.count_nonzero(needed > 0.0)]
        drop_keys = (-needed[order]).tolist()
        oids = list(pending)
        drop_oids = [oids[i] for i in order.tolist()]
    n_drops = len(drop_keys)
    cursor = 0
    # The (negated) bound below which *every* pending object is doomed.
    # Always reached on a chunk's first feature set, where ``needed`` is
    # one value; never while some object has no positive ``needed``.
    all_doomed = drop_keys[-1] if n_drops == len(pending) else math.inf

    # (-bound, counter, item, pos): an internal entry to expand (``pos``
    # -1), or an opened leaf's run whose best untaken feature is ``pos``,
    # keyed and tie-broken exactly as in ``FeatureStream``.
    heap: list[tuple[float, int, object, int]] = []
    counter = 0
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace

    def open_node(node) -> None:
        nonlocal counter
        if node.is_leaf:
            run = tree.leaf_run(node, scorer)
            neg_scores = run.neg_scores
            if neg_scores:
                heappush(heap, (neg_scores[0], counter + 1, run, 0))
                counter += len(neg_scores)
            return
        for e in node.entries:
            bound = scorer.relevant_bound(e)
            if bound is None:
                continue
            if out_of_reach(e.rect, radius):
                # The bound-prune, decided before e is ever queued.
                stats.nodes_pruned += 1
                if pruned_bounds is not None:
                    pruned_bounds.add(bound)
                continue
            counter += 1
            heappush(heap, (-bound, counter, e, -1))

    open_node(tree.read_node(tree.root_id))
    while heap and len(grid):
        neg_bound, tie, item, pos = heap[0]
        stats.heap_pops += 1
        if cursor < n_drops and drop_keys[cursor] < neg_bound:
            # needed > bound (both negated): out of reach from here on.
            if all_doomed < neg_bound:
                break
            while cursor < n_drops and drop_keys[cursor] < neg_bound:
                oid = drop_oids[cursor]
                cursor += 1
                x, y = pending[oid]
                grid_discard(oid, x, y)
        if pos >= 0:
            row = item.rows.item(pos)
            pos += 1
            neg_scores = item.neg_scores
            if pos < len(neg_scores):
                heapreplace(heap, (neg_scores[pos], tie + 1, item, pos))
            else:
                heappop(heap)
            for oid in pop_within(item.xs.item(row), item.ys.item(row), radius):
                scores[oid] = -neg_bound
        else:
            heappop(heap)
            # Expand only when some pending object is within range of the
            # entry (the batched expansion rule of Section 5).
            if any_near_rect(item.rect, radius):
                node = tree.read_node(item.child)
                stats.nodes_visited += 1
                open_node(node)
            else:
                # The bound-prune of the batched expansion rule: the
                # subtree's ŝ(e) is known (= -neg_bound) but no pending
                # object is near its rectangle any more.
                stats.nodes_pruned += 1
                if pruned_bounds is not None:
                    pruned_bounds.add(-neg_bound)
    return scores


# ----------------------------------------------------------------------
# Algorithm 1: the full scan
# ----------------------------------------------------------------------
def stds(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    batch_size: int = DEFAULT_BATCH_SIZE,
    floor: float = -math.inf,
    stats: QueryStats | None = None,
) -> QueryResult:
    """Run STDS for any score variant.

    The range variant uses the batched score computation; the influence
    and nearest-neighbor variants use the per-object adaptations of
    Section 7 (they are evaluated in the paper only through STPS, but are
    provided for completeness and as a correctness oracle).

    ``batch_size`` controls the chunking of the scan (threshold pruning
    kicks in between chunks); no engine above this function sets it —
    it is the seam tests use to force many chunks on a small world.

    ``floor`` is an externally known lower bound on the global k-th best
    score (used by the sharded engine, which feeds each shard the merged
    k-th score collected so far).  Objects whose score is *strictly*
    below ``floor`` may be omitted from the result; objects scoring
    ``>= floor`` are always reported exactly, so a caller that only
    consumes items at or above its own floor sees unchanged answers.
    ``stats`` is the accumulator to count into (a fresh one when None).
    """
    if len(feature_trees) != query.c:
        raise QueryError(
            f"query addresses {query.c} feature sets, processor has "
            f"{len(feature_trees)}"
        )
    if batch_size < 1:
        raise QueryError(f"batch size must be >= 1, got {batch_size}")
    tracker = StatsTracker(
        [object_tree.pagefile] + [t.pagefile for t in feature_trees]
    )
    stats = stats or QueryStats()
    rec = _tracing.recorder()

    with rec.span("stds.scan_objects"):
        objects = object_tree.scan()
    stats.objects_scored = len(objects)

    if query.variant is Variant.RANGE:
        candidates = _stds_range_batched(
            feature_trees, query, objects, batch_size, stats, rec=rec,
            floor=floor,
        )
    else:
        with rec.span("stds.score_objects"):
            candidates = _stds_per_object(
                feature_trees, query, objects, stats, floor=floor,
            )

    stats.phase_times = rec.totals()
    result = QueryResult(rank_items(candidates, query.k), stats)
    tracker.finish(stats)
    return result


def _stds_range_batched(
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    objects: list[tuple[int, float, float]],
    batch_size: int,
    stats: QueryStats | None = None,
    rec=_tracing.NULL_RECORDER,
    floor: float = -math.inf,
) -> list[tuple[float, int, float, float]]:
    stats = stats or QueryStats()
    sets = [stats.feature_set(i) for i in range(query.c)]
    top: list[tuple[float, int]] = []  # min-heap by score
    threshold = floor
    candidates: list[tuple[float, int, float, float]] = []
    c = query.c
    debug = logger.isEnabledFor(logging.DEBUG)

    for start in range(0, len(objects), batch_size):
        chunk = objects[start : start + batch_size]
        chunk_id = start // batch_size
        pending = {oid: (x, y) for oid, x, y in chunk}
        partial = {oid: 0.0 for oid, _, _ in chunk}
        for i, tree in enumerate(feature_trees):
            if not pending:
                break
            remaining_sets = c - i - 1
            with rec.span("stds.chunk_scan", feature_set=i, chunk=chunk_id):
                scores = compute_scores_batch(
                    tree,
                    query,
                    query.keyword_masks[i],
                    pending,
                    sets[i],
                    partial=partial,
                    threshold=threshold,
                    remaining_sets=remaining_sets,
                )
            if remaining_sets == 0:
                # Last feature set: no survivor set to build.
                for oid in pending:
                    partial[oid] += scores[oid]
                break
            survivors: dict[int, tuple[float, float]] = {}
            drop_cut = threshold - _DROP_EPS
            for oid, loc in pending.items():
                total = partial[oid] + scores[oid]
                partial[oid] = total
                # τ̂(p): known partials + 1 per unknown set (Section 5).
                # Drop only when *strictly* below the cut (with the same
                # epsilon guard as compute_scores_batch): an object whose
                # exact aggregate ties the k-th score must survive so the
                # (score desc, oid asc) tie-break sees it.
                if total + remaining_sets > drop_cut:
                    survivors[oid] = loc
            stats.objects_dropped += len(pending) - len(survivors)
            pending = survivors
        with rec.span("stds.threshold_fold", chunk=chunk_id):
            for oid, x, y in chunk:
                score = partial[oid]
                candidates.append((score, oid, x, y))
                if len(top) < query.k:
                    heapq.heappush(top, (score, -oid))
                elif score > top[0][0]:
                    heapq.heapreplace(top, (score, -oid))
                if len(top) == query.k and top[0][0] > threshold:
                    threshold = top[0][0]
        stats.chunk_scanned(chunk_id, len(chunk), threshold)
        if debug:
            logger.debug(
                "stds chunk %d: %d objects, threshold now %.6f",
                chunk_id, len(chunk), threshold,
            )
    return _prune_candidates(candidates, top, query.k)


def _prune_candidates(
    candidates: list[tuple[float, int, float, float]],
    top: list[tuple[float, int]],
    k: int,
) -> list[tuple[float, int, float, float]]:
    """Drop candidates that can no longer rank (score below the k-th).

    Keeps every candidate at the cut-off score, so ``rank_items``'
    (score desc, oid asc) tie-breaking sees everything it needs and the
    top-k is exactly that of the unpruned list.
    """
    if len(top) < k:
        return candidates
    cutoff = top[0][0]
    return [cand for cand in candidates if cand[0] >= cutoff]


def _stds_per_object(
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    objects: list[tuple[int, float, float]],
    stats: QueryStats | None = None,
    floor: float = -math.inf,
) -> list[tuple[float, int, float, float]]:
    stats = stats or QueryStats()
    sets = [stats.feature_set(i) for i in range(query.c)]
    threshold = floor
    top: list[tuple[float, int]] = []
    candidates: list[tuple[float, int, float, float]] = []
    c = query.c
    for oid, x, y in objects:
        total = 0.0
        for i, tree in enumerate(feature_trees):
            if total + (c - i) < threshold - _DROP_EPS:
                # τ̂(p) strictly below the k-th score (epsilon-guarded so
                # an exact tie at the cut always survives for the
                # (score desc, oid asc) tie-break).
                stats.early_terminations += 1
                stats.objects_dropped += 1
                break
            total += compute_score(
                tree, query, query.keyword_masks[i], (x, y), sets[i]
            )
        else:
            candidates.append((total, oid, x, y))
            if len(top) < query.k:
                heapq.heappush(top, (total, -oid))
            elif total > top[0][0]:
                heapq.heapreplace(top, (total, -oid))
            if len(top) == query.k and top[0][0] > threshold:
                threshold = top[0][0]
    # The per-object scan is a single logical chunk.
    stats.chunk_scanned(0, len(objects), threshold)
    return candidates
