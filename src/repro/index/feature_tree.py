"""Base class for spatio-textual feature indexes (Section 4.1).

A feature index stores one feature set ``F_i``.  The paper's requirements
(Section 4.1): any spatial hierarchical index works, provided each entry
``e`` additionally maintains (i) the maximum quality score ``e.s`` below
it and (ii) a summary ``e.W`` of all descendant keywords, such that the
derived bound ``ŝ(e) >= s(t)`` holds for every descendant feature ``t``.

Concrete subclasses:

* :class:`repro.index.srt.SRTIndex` — the paper's contribution;
* :class:`repro.index.ir2.IR2Tree` — the modified IR²-tree baseline.

They differ in bulk-load order (4-d mapped space vs 2-d spatial) and in
the summary representation (exact keyword-union mask vs superimposed
signature), which changes the tightness of ``ŝ(e)`` — the effect the
experiments measure.

Query-time scoring is factored into :class:`FeatureScorer` objects created
per (query keywords, λ) so per-call work stays minimal on the hot path.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Iterable

import numpy as np

from repro.errors import IndexError_
from repro.geometry.rect import Rect
from repro.index.leafdata import (
    SCORE_MEMO_CAP,
    LeafRun,
    SiblingBlock,
    feature_leaf_arrays,
    pack_mask,
    sibling_block,
)
from repro.index.nodes import (
    FeatureInternalEntry,
    FeatureLeafEntry,
    FeatureNodeCodec,
    Node,
)
from repro.index.rtree_base import DEFAULT_FILL, RTreeBase
from repro.model.dataset import FeatureDataset
from repro.storage.node_cache import DEFAULT_BUFFER_PAGES
from repro.storage.pagefile import PageFile
from repro.text.similarity import jaccard


class FeatureScorer:
    """Per-query scoring of feature-tree entries.

    Implements Definition 1, ``s(t) = (1-λ)·t.s + λ·sim(t, W)``, and the
    index bound of Section 4.2, ``ŝ(e) = (1-λ)·e.s + λ·sim_ub(e, W)``,
    where ``sim_ub`` is subclass-specific (exact overlap for SRT, signature
    match count for IR²) and always >= the Jaccard similarity of any
    descendant feature.
    """

    __slots__ = ("query_mask", "lam", "n_terms", "_sim_upper", "_qwords", "_key")

    def __init__(self, query_mask: int, lam: float, sim_upper) -> None:
        self.query_mask = query_mask
        self.lam = lam
        # What a leaf's memo keys this query's run on.
        self._key = (query_mask, lam)
        self.n_terms = query_mask.bit_count()
        self._sim_upper = sim_upper
        # The query mask as one row of leaf mask words, packed at the
        # first leaf scored (a scorer serves one tree, so one width).
        self._qwords = None

    def leaf_score(self, entry: FeatureLeafEntry) -> float:
        """Exact preference score ``s(t)`` of a feature (Definition 1)."""
        return (1.0 - self.lam) * entry.score + self.lam * jaccard(
            entry.mask, self.query_mask
        )

    def leaf_relevant(self, entry: FeatureLeafEntry) -> bool:
        """``sim(t, W) > 0`` — the relevance filter of Definition 2."""
        return (entry.mask & self.query_mask) != 0

    def node_bound(self, entry: FeatureInternalEntry) -> float:
        """Upper bound ``ŝ(e)`` for every feature below ``entry``."""
        return (1.0 - self.lam) * entry.max_score + self.lam * self._sim_upper(
            entry.summary
        )

    def node_relevant(self, entry: FeatureInternalEntry) -> bool:
        """May the subtree contain a feature with ``sim > 0``?"""
        return self._sim_upper(entry.summary) > 0.0

    def relevant_bound(self, entry: FeatureInternalEntry) -> float | None:
        """:meth:`node_bound` when :meth:`node_relevant`, else ``None`` —
        the traversals' test-then-bound with one ``sim_ub`` evaluation."""
        sim = self._sim_upper(entry.summary)
        if sim > 0.0:
            return (1.0 - self.lam) * entry.max_score + self.lam * sim
        return None

    # ------------------------------------------------------------------
    # a scored leaf (see repro.index.leafdata.LeafRun)
    # ------------------------------------------------------------------
    def leaf_run(self, arrays) -> LeafRun:
        """The leaf's relevant rows as a sorted run, memoised per query.

        The one-leaf call of :meth:`_scored`, the scoring formula
        :meth:`sibling_runs` shares.  The two are the only writers of
        ``arrays.memo``, both through :func:`_remember`, which keeps
        the cap.
        """
        key = self._key
        memo = arrays.memo
        run = memo.get(key)
        if run is not None:
            return run
        rows, neg = self._scored(arrays.masks, arrays.mask_pops, arrays.scores)
        order = neg.argsort(kind="stable")
        run = LeafRun(
            neg[order].tolist(), rows[order], arrays.fids, arrays.xs, arrays.ys
        )
        _remember(memo, key, run)
        return run

    def sibling_runs(self, block: SiblingBlock) -> None:
        """Memoise every leaf of ``block`` in one vectorized pass.

        The runs are those :meth:`leaf_run` would build leaf by leaf —
        the same formula over the concatenated columns, then one stable
        sort by (leaf, ``-s(t)``), so ties stay in row order.  A memo
        that already holds the query's run is left alone.
        """
        key = self._key
        parts = block.parts
        rows, neg = self._scored(block.masks, block.mask_pops, block.scores)
        leaf = block.leaf_of[rows]
        order = np.lexsort((neg, leaf))
        leaf = leaf[order]
        local = rows[order] - block.starts[leaf]
        neg_scores = neg[order].tolist()
        ends = np.bincount(leaf, minlength=len(parts)).cumsum().tolist()
        start = 0
        for arrays, end in zip(parts, ends):
            if key not in arrays.memo:
                _remember(arrays.memo, key, LeafRun(
                    neg_scores[start:end], local[start:end],
                    arrays.fids, arrays.xs, arrays.ys,
                ))
            start = end

    def holds_runs(self, parts: list) -> bool:
        """Whether every leaf array in ``parts`` has this query's run."""
        key = self._key
        return all(key in arrays.memo for arrays in parts)

    def _scored(self, masks, mask_pops, scores):
        """``(rows, -s(t))`` of the relevant rows of a column block.

        Mirrors :meth:`leaf_score` / :meth:`leaf_relevant` operation for
        operation so the values are bit-identical to theirs: ``|t.W ∩
        W|`` comes from a vectorized popcount of the packed masks and
        ``|t.W ∪ W| = |t.W| + |W| - |t.W ∩ W|`` (exact even when the
        query mask is wider than the packed entry masks, whose overflow
        bits can never intersect; never 0 on a relevant row).  Rows are
        in block order.
        """
        qwords = self._qwords
        if qwords is None:
            qwords = self._qwords = pack_mask(
                self.query_mask, masks.shape[1] * masks.itemsize
            ).view(masks.dtype)
        # ``np.add.reduce`` is ``.sum(axis=1, dtype=int64)`` without the
        # method's keyword parsing.
        inter = np.add.reduce(np.bitwise_count(masks & qwords), 1, np.int64)
        rows = inter.nonzero()[0]
        inter = inter[rows]
        union = mask_pops[rows] + self.n_terms - inter
        return rows, -(
            (1.0 - self.lam) * scores[rows] + self.lam * (inter / union)
        )


def _remember(memo: dict, key: tuple, run: LeafRun) -> None:
    """Store ``run`` in a leaf's memo, wiping a full memo first."""
    if len(memo) >= SCORE_MEMO_CAP:
        memo.clear()
    memo[key] = run


class FeatureTree(RTreeBase):
    """Shared construction & aggregate maintenance for feature indexes."""

    def __init__(
        self,
        vocab_size: int,
        pagefile: PageFile | None = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ) -> None:
        super().__init__(pagefile, buffer_pages)
        if vocab_size < 1:
            raise IndexError_("vocabulary size must be >= 1")
        self.vocab_size = vocab_size
        self._codec = FeatureNodeCodec(
            mask_bytes=(vocab_size + 7) // 8,
            summary_bytes=self.summary_bytes(),
        )

    @property
    def codec(self) -> FeatureNodeCodec:
        return self._codec

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def summary_bytes(self) -> int:
        """Serialized width of the per-node textual summary."""

    @abstractmethod
    def leaf_summary(self, mask: int) -> int:
        """Summary contribution of a single feature's keyword mask."""

    @abstractmethod
    def bulk_sort_keys(self, entries: list[FeatureLeafEntry]) -> np.ndarray:
        """One sort key per entry; bulk loading packs them in stable key
        order."""

    @abstractmethod
    def make_scorer(self, query_mask: int, lam: float) -> FeatureScorer:
        """Scorer for one query (keyword mask + smoothing parameter)."""

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: FeatureDataset,
        pagefile: PageFile | None = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        method: str = "bulk",
        fill: float = DEFAULT_FILL,
        **kwargs,
    ) -> "FeatureTree":
        """Build an index over a feature dataset.

        ``method`` is ``"bulk"`` (sorted packing — what the paper
        evaluates) or ``"insert"`` (incremental, extension path).
        """
        tree = cls(dataset.vocabulary.size, pagefile, buffer_pages, **kwargs)
        entries = [
            FeatureLeafEntry(f.fid, f.x, f.y, f.score, f.keyword_mask())
            for f in dataset
        ]
        if method == "bulk":
            order = np.argsort(tree.bulk_sort_keys(entries), kind="stable")
            tree.bulk_load([entries[i] for i in order.tolist()], fill)
        elif method == "insert":
            for entry in entries:
                tree.insert(entry)
        else:
            raise ValueError(f"unknown build method {method!r}")
        return tree

    def parent_entry(self, child: Node) -> FeatureInternalEntry:
        if not child.entries:
            raise IndexError_(f"node {child.page_id} has no entries")
        if child.is_leaf:
            max_score = max(e.score for e in child.entries)
            summary = 0
            for e in child.entries:
                summary |= self.leaf_summary(e.mask)
        else:
            max_score = max(e.max_score for e in child.entries)
            summary = 0
            for e in child.entries:
                summary |= e.summary
        return FeatureInternalEntry(child.page_id, child.mbr(), max_score, summary)

    def entry_rect(self, entry) -> Rect:
        return entry.rect

    # ------------------------------------------------------------------
    # columnar leaves
    # ------------------------------------------------------------------
    def leaf_arrays(self, node: Node):
        """Columnar view of a leaf node."""
        return feature_leaf_arrays(node, self._codec.mask_bytes)

    def leaf_run(self, node: Node, scorer: FeatureScorer) -> LeafRun:
        """A leaf scored by ``scorer``."""
        return scorer.leaf_run(self.leaf_arrays(node))

    def score_leaves(self, node: Node, scorer: FeatureScorer) -> None:
        """Memoise the runs of a level-1 node's leaves in one pass.

        Only when every child is already in the node cache, checked with
        :meth:`NodeCache.peek_all` — which counts nothing and leaves the
        LRU order alone — so the pass reads no page and moves no counter;
        the leaves are still read and counted one by one when the
        caller opens them, and find their runs in their memos.
        """
        block = node._leaf_arrays
        if isinstance(block, SiblingBlock) and scorer.holds_runs(block.parts):
            # A repeated query.  Skipping the pass is always safe, so
            # this needs no residency check, even if a child has been
            # read again since the block was built.
            return
        children = self._node_cache.peek_all([e.child for e in node.entries])
        if children is None:
            return
        mask_bytes = self._codec.mask_bytes
        parts = [feature_leaf_arrays(child, mask_bytes) for child in children]
        if not scorer.holds_runs(parts):
            scorer.sibling_runs(sibling_block(node, parts))

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def iter_features(self) -> Iterable[FeatureLeafEntry]:
        """Full scan of all feature leaf entries."""
        yield from self.iter_leaf_entries()
