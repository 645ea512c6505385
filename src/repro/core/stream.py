"""Sorted access to a feature index by decreasing preference score.

Implements the per-feature-set retrieval of Algorithm 4 (lines 3-7): a
best-first traversal of the spatio-textual index keyed on the node bound
``ŝ(e)``, yielding feature objects in non-increasing ``s(t)`` order.
Subtrees that cannot contain a relevant feature (``sim = 0``) are pruned.

Per Section 6.3 the stream ends with the *virtual feature object* ``∅``
(score 0, no location), which lets STPS form combinations in which a
feature set contributes nothing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.index.feature_tree import FeatureScorer, FeatureTree
from repro.obs import explain as _explain


@dataclass(frozen=True, slots=True)
class StreamedFeature:
    """A feature pulled from a stream, scored against the query.

    ``is_virtual`` marks the paper's ``∅`` object: ``s(∅) = 0`` and it
    imposes no distance constraint (``dist(·, ∅) = 0``).
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
    """Iterator over one feature set in decreasing ``s(t)`` order."""

    def __init__(
        self,
        tree: FeatureTree,
        query_mask: int,
        lam: float,
        emit_virtual: bool = True,
        collector=None,
        set_id: int = 0,
    ) -> None:
        self.tree = tree
        self.scorer: FeatureScorer = tree.make_scorer(query_mask, lam)
        # (-bound, push counter, item): an internal entry to expand, or
        # the (fid, x, y) row of a leaf feature.
        self._heap: list[tuple[float, int, object]] = []
        self._counter = 0
        self._virtual_pending = emit_virtual
        self._exhausted = False
        self.pulled = 0
        # EXPLAIN collector (repro.obs.explain): per-set node accesses
        # and text prunes.  The null collector makes every call a no-op;
        # hot loops check ``active`` first to skip the call entirely.
        self.collector = _explain.resolve(collector)
        self.set_id = set_id
        if tree.root_id is not None and tree.count > 0:
            root = tree.read_node(tree.root_id)
            if self.collector.active:
                # The root carries no entry bound; 1.0 is the score cap.
                self.collector.node_visited(set_id, 1.0)
            self._push_children(root)

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def next(self) -> StreamedFeature | None:
        """The next feature by descending score; ``∅`` last; then None."""
        collector = self.collector
        while self._heap:
            neg_bound, _, entry = heapq.heappop(self._heap)
            if type(entry) is tuple:
                self.pulled += 1
                if collector.active:
                    collector.feature_pulled(self.set_id)
                return StreamedFeature(*entry, -neg_bound)
            node = self.tree.read_node(entry.child)
            if collector.active:
                collector.node_visited(self.set_id, -neg_bound)
            self._push_children(node)
        if self._virtual_pending:
            self._virtual_pending = False
            return virtual_feature()
        self._exhausted = True
        return None

    @property
    def next_bound(self) -> float | None:
        """Best possible score of any not-yet-returned feature.

        This is the ``min_i`` of the paper's thresholding scheme: the heap
        top's bound while entries remain, ``0.0`` while only the virtual
        feature is pending, and ``None`` once fully exhausted.
        """
        if self._heap:
            return -self._heap[0][0]
        if self._virtual_pending:
            return 0.0
        return None

    @property
    def exhausted(self) -> bool:
        """True once :meth:`next` has returned None."""
        return self._exhausted or (not self._heap and not self._virtual_pending)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _push_children(self, node) -> None:
        scorer = self.scorer
        heap = self._heap
        collector = self.collector
        if node.is_leaf:
            arrays = self.tree.leaf_arrays(node)
            if arrays is not None:
                # Vectorized: score the whole leaf in one array pass
                # (repro.index.leafdata); push order and score values
                # are identical to the scalar loop below.
                scores, relevant = scorer.leaf_score_arrays(arrays)
                idx = relevant.nonzero()[0]
                if collector.active:
                    collector.entries_pruned(
                        self.set_id, len(arrays) - int(idx.size)
                    )
                if idx.size:
                    rows = zip(
                        arrays.fids[idx].tolist(),
                        arrays.xs[idx].tolist(),
                        arrays.ys[idx].tolist(),
                    )
                    for value, row in zip(scores[idx].tolist(), rows):
                        self._counter += 1
                        heapq.heappush(heap, (-value, self._counter, row))
                return
            for entry in node.entries:
                if scorer.leaf_relevant(entry):
                    self._counter += 1
                    heapq.heappush(
                        heap,
                        (
                            -scorer.leaf_score(entry),
                            self._counter,
                            (entry.fid, entry.x, entry.y),
                        ),
                    )
                elif collector.active:
                    collector.entries_pruned(self.set_id)
        else:
            for entry in node.entries:
                if scorer.node_relevant(entry):
                    self._counter += 1
                    heapq.heappush(
                        heap, (-scorer.node_bound(entry), self._counter, entry)
                    )
                elif collector.active:
                    # Text-irrelevant subtree (sim = 0): pruned without
                    # a bound value — ŝ(e) is not computed for it.
                    collector.node_pruned(self.set_id)
