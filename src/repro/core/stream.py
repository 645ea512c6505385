"""Best-first access to a feature index: the sorted stream and the probe.

:class:`FeatureStream` is the per-feature-set retrieval of Algorithm 4
(lines 3-7): a best-first traversal of the spatio-textual index keyed on
the node bound ``ŝ(e)``, yielding feature objects in non-increasing
``s(t)`` order.  Subtrees that cannot contain a relevant feature
(``sim = 0``) are pruned.  Per Section 6.3 the stream ends with the
*virtual feature object* ``∅`` (score 0, no location), which lets STPS
form combinations in which a feature set contributes nothing.

:func:`probe` is the walk seen from one location (Algorithm 2 and its
Section 7 variants): its first yield is ``τ_i(p)``, its output by
distance is the Voronoi competitor stream, and its first influence
yield for a rectangle bounds ISS's object-tree nodes.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from typing import NamedTuple

from repro.core.query import Variant
from repro.geometry.rect import Rect
from repro.index.feature_tree import FeatureScorer, FeatureTree
from repro.obs.explain import FeatureSetDiag


class StreamedFeature(NamedTuple):
    """A feature pulled from a stream, scored against the query.

    ``is_virtual`` marks the paper's ``∅`` object: ``s(∅) = 0`` and it
    imposes no distance constraint (``dist(·, ∅) = 0``).  A named tuple:
    one is built per pull, and a tuple is the cheapest immutable record.
    """

    fid: int
    x: float
    y: float
    score: float
    is_virtual: bool = False


VIRTUAL_FID = -1


def virtual_feature() -> StreamedFeature:
    """The ``∅`` sentinel of Section 6.1."""
    return StreamedFeature(VIRTUAL_FID, 0.0, 0.0, 0.0, is_virtual=True)


class FeatureStream:
    """Iterator over one feature set in decreasing ``s(t)`` order.

    A lazy k-way merge: an opened leaf is one sorted
    :class:`~repro.index.leafdata.LeafRun` and one heap entry, re-keyed
    on the run's next score each time a feature is taken from it, so the
    heap does O(leaves opened + features pulled) work however many
    relevant features the opened leaves hold.  The emission order is
    that of a heap holding every feature by itself.
    """

    def __init__(
        self,
        tree: FeatureTree,
        query_mask: int,
        lam: float,
        emit_virtual: bool = True,
        stats: FeatureSetDiag | None = None,
    ) -> None:
        self.tree = tree
        self.scorer: FeatureScorer = tree.make_scorer(query_mask, lam)
        # (-bound, counter, item, pos): an internal entry to expand
        # (``pos`` -1), or an opened leaf's run whose best untaken
        # feature is ``pos``.  Counters break score ties first come
        # first served: an internal entry takes the next one, a leaf
        # reserves one per run position (a run's ties are in row order),
        # so its entry is re-keyed without consulting the stream.
        self._heap: list[tuple[float, int, object, int]] = []
        self._counter = 0
        self._virtual_pending = emit_virtual
        # This set's record in the query's accumulator: node accesses,
        # text prunes and pulls are counted there and nowhere else.
        self.stats = stats or FeatureSetDiag(0)
        if tree.root_id is not None and tree.count > 0:
            root = tree.read_node(tree.root_id)
            self.stats.nodes_visited += 1
            self._open(root)
        #: Best possible score of any not-yet-returned feature — the
        #: ``min_i`` of the paper's thresholding scheme: the heap top's
        #: bound while entries remain, ``0.0`` while only the virtual
        #: feature is pending, and ``None`` once fully exhausted.  A
        #: plain attribute, refreshed by :meth:`next` (the threshold
        #: reads it for every stream on every pull).
        self.next_bound: float | None = self._bound()

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def next(self) -> StreamedFeature | None:
        """The next feature by descending score; ``∅`` last; then None."""
        heap = self._heap
        while heap:
            neg_bound, counter, item, pos = heap[0]
            if pos < 0:
                heapq.heappop(heap)
                node = self.tree.read_node(item.child)
                self.stats.nodes_visited += 1
                self._open(node)
                continue
            row = item.rows.item(pos)
            pos += 1
            neg_scores = item.neg_scores
            if pos < len(neg_scores):
                heapq.heapreplace(
                    heap, (neg_scores[pos], counter + 1, item, pos)
                )
            else:
                heapq.heappop(heap)
            self.stats.features_pulled += 1
            self.next_bound = self._bound()
            return StreamedFeature(
                item.fids.item(row), item.xs.item(row), item.ys.item(row),
                -neg_bound,
            )
        self.next_bound = None
        if self._virtual_pending:
            self._virtual_pending = False
            return virtual_feature()
        return None

    @property
    def exhausted(self) -> bool:
        """True once nothing is left to deliver, ``∅`` included."""
        return self.next_bound is None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bound(self) -> float | None:
        if self._heap:
            return -self._heap[0][0]
        return 0.0 if self._virtual_pending else None

    def _open(self, node) -> None:
        """Queue a node's relevant children, or a leaf's run."""
        scorer = self.scorer
        heap = self._heap
        stats = self.stats
        if node.is_leaf:
            run = self.tree.leaf_run(node, scorer)
            neg_scores = run.neg_scores
            stats.entries_pruned += len(run.fids) - len(neg_scores)
            if neg_scores:
                heapq.heappush(heap, (neg_scores[0], self._counter + 1, run, 0))
                self._counter += len(neg_scores)
            return
        for entry in node.entries:
            bound = scorer.relevant_bound(entry)
            if bound is not None:
                self._counter += 1
                heapq.heappush(heap, (-bound, self._counter, entry, -1))
            else:
                # Text-irrelevant subtree (sim = 0): pruned without
                # a bound value — ŝ(e) is not computed for it.
                stats.nodes_pruned += 1


def probe(
    tree: FeatureTree,
    scorer: FeatureScorer,
    target: tuple[float, float] | Rect,
    variant: Variant,
    radius: float,
    stats: FeatureSetDiag | None = None,
) -> Iterator[tuple[float, float, int, float, float]]:
    """The relevant features of ``tree``, best first from ``target``.

    Algorithm 2's walk under the priority of ``variant`` (Section 7
    changes only the priority), smallest key first: range ``-s(t)``
    within ``radius`` of the point; influence ``-s(t)·2^(-d/r)``
    (``ŝ(e)`` and ``mindist`` for a subtree; ``target`` may be a
    :class:`Rect`, whose keys bound every point inside); NN ``d``, where
    a subtree tying a feature's distance opens first and equidistant
    features come out best score first.  Other ties go first queued, a
    leaf's in row order.  Yields ``(key, value, fid, x, y)``, ``value``
    being ``s(t)`` (influence: ``s(t)·2^(-d/r)``), so the first yield is
    ``τ_i(target)``; ``stats`` counts heap pops and nodes read below the
    root.

    A leaf is its memoised :class:`~repro.index.leafdata.LeafRun`
    re-ordered by key: one heap entry re-keyed per feature taken, with
    one tie counter reserved per feature.  Distances are ``math.hypot``
    of the per-axis gaps on Python floats, subtrees included (a feature
    on a subtree's nearest corner ties it exactly), as in
    :func:`repro.core.bruteforce.component_score`, whose values the
    yields reproduce bit for bit; range keeps its squared test on
    features and ``Rect.mindist`` on subtrees.
    """
    if tree.root_id is None or tree.count == 0:
        return
    stats = stats or FeatureSetDiag(0)
    nearest = variant is Variant.NEAREST
    in_range = variant is Variant.RANGE
    boxed = isinstance(target, Rect)
    (tlx, tly), (thx, thy) = (
        (target.low, target.high) if boxed else (target, target)
    )

    def gap(lx: float, ly: float, hx: float, hy: float) -> float:
        # ``math.hypot`` of the per-axis gaps between target and a box.
        return math.hypot(
            max(lx - thx, 0.0, tlx - hx), max(ly - thy, 0.0, tly - hy)
        )

    # (key, sub, tie, item, pos, run): an internal entry to expand
    # (``pos`` -1), or an opened leaf's ordered (key, sub, row, value)
    # features, the next untaken being ``pos``.  ``sub`` is 0.0 except
    # under NN: -inf for a subtree, -s(t) for a feature.
    heap: list[tuple[float, float, int, object, int, object]] = []
    counter = 0

    def open_node(node) -> None:
        nonlocal counter
        if not node.is_leaf:
            for e in node.entries:
                bound = scorer.relevant_bound(e)
                if bound is None:
                    continue
                if in_range:
                    if e.rect.mindist(target) > radius:
                        continue
                    key, sub = -bound, 0.0
                else:
                    d = gap(*e.rect.low, *e.rect.high)
                    if nearest:
                        key, sub = d, -math.inf
                    else:
                        key, sub = -(bound * 2.0 ** (-d / radius)), 0.0
                counter += 1
                heapq.heappush(heap, (key, sub, counter, e, -1, None))
            return
        run = tree.leaf_run(node, scorer)
        neg_scores = run.neg_scores
        rows = run.rows
        if in_range:
            # The run is in key order already: keep the rows in range.
            dx = run.xs[rows] - tlx
            dy = run.ys[rows] - tly
            taken = (dx * dx + dy * dy <= radius * radius).nonzero()[0]
            feats = [
                (neg_scores[i], 0.0, rows.item(i), -neg_scores[i])
                for i in taken.tolist()
            ]
        else:
            feats = []
            for neg_s, row, x, y in zip(
                neg_scores, rows.tolist(),
                run.xs[rows].tolist(), run.ys[rows].tolist(),
            ):
                d = gap(x, y, x, y) if boxed else math.hypot(x - tlx, y - tly)
                if nearest:
                    feats.append((d, neg_s, row, -neg_s))
                else:
                    value = -neg_s * 2.0 ** (-d / radius)
                    feats.append((-value, 0.0, row, value))
            feats.sort()
        if feats:
            key, sub, _, _ = feats[0]
            heapq.heappush(heap, (key, sub, counter + 1, feats, 0, run))
            counter += len(feats)

    open_node(tree.read_node(tree.root_id))
    while heap:
        key, _, tie, item, pos, run = heap[0]
        stats.heap_pops += 1
        if pos < 0:
            heapq.heappop(heap)
            stats.nodes_visited += 1
            open_node(tree.read_node(item.child))
            continue
        row, value = item[pos][2:]
        pos += 1
        if pos < len(item):
            nxt = item[pos]
            heapq.heapreplace(
                heap, (nxt[0], nxt[1], tie + 1, item, pos, run)
            )
        else:
            heapq.heappop(heap)
        yield key, value, run.fids.item(row), run.xs.item(row), run.ys.item(row)
