"""The SRT-index (Section 4) — the paper's indexing contribution.

An R-tree over feature objects built in the *mapped 4-d space*
``(x, y, t.s, H(t.W))`` where ``H`` is the Hilbert/Gray ordering of the
keyword bit vectors (Section 4.2).  Bulk loading sorts features by the
Hilbert key of that 4-d point, so features that are close in space AND
have similar quality AND similar keyword sets land in the same node —
which is exactly what makes the node bound

    ŝ(e) = (1-λ)·e.s + λ·|e.W ∩ W| / |W|

tight.  The per-node keyword summary ``e.W`` is the exact union of all
descendant keywords; per the paper it is maintained as an aggregated
Hilbert value (decode → OR → encode).  We store the union bit mask — the
bijective image of that Hilbert value — and expose the Hilbert form via
:meth:`node_hilbert_value` for interoperability.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect
from repro.hilbert.curve import HilbertCurve
from repro.hilbert.keywords import KeywordHilbert
from repro.index.feature_tree import FeatureScorer, FeatureTree
from repro.index.nodes import FeatureInternalEntry, FeatureLeafEntry
from repro.storage.node_cache import DEFAULT_BUFFER_PAGES
from repro.storage.pagefile import PageFile
from repro.text.similarity import overlap_ratio

SRT_KEY_BITS = 8


class SRTIndex(FeatureTree):
    """Score/textual/spatial R-tree over the mapped 4-d space."""

    def __init__(
        self,
        vocab_size: int,
        pagefile: PageFile | None = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ) -> None:
        self._kh = KeywordHilbert(max(1, vocab_size))
        super().__init__(vocab_size, pagefile, buffer_pages)

    def summary_bytes(self) -> int:
        # The exact keyword-union mask: one bit per vocabulary term.
        return (self.vocab_size + 7) // 8

    def leaf_summary(self, mask: int) -> int:
        return mask

    def bulk_sort_keys(self, entries: list[FeatureLeafEntry]) -> np.ndarray:
        """Hilbert keys of the mapped points ``(x, y, s, H(W))``.

        ``H(W)`` is computed per entry on Python ints, so it stays exact
        for vocabularies wider than a machine word; only its unit-interval
        image enters the key.
        """
        kh = self._kh
        points = np.array(
            [(e.x, e.y, e.score, kh.to_unit(kh.encode(e.mask))) for e in entries],
            dtype=np.float64,
        )
        return HilbertCurve(4, SRT_KEY_BITS).encode_unit(points.reshape(-1, 4).T)

    def make_scorer(self, query_mask: int, lam: float) -> FeatureScorer:
        def sim_upper(summary: int) -> float:
            return overlap_ratio(summary, query_mask)

        return FeatureScorer(query_mask, lam, sim_upper)

    def metadata(self) -> dict:
        return {
            "kind": "srt",
            "vocab_size": self.vocab_size,
            "page_size": self.pagefile.page_size,
        }

    def node_hilbert_value(self, entry: FeatureInternalEntry) -> int:
        """The node's aggregated keyword summary as a Hilbert value.

        This is the representation the paper stores; it is the bijective
        image of the union mask we keep (see module docstring).
        """
        return self._kh.encode(entry.summary)

    def _choose_cost(self, internal_entry, target: Rect):
        """Insert-mode subtree choice (extension; the paper bulk-loads).

        Prefers subtrees that already cover the new feature's keywords and
        score, then minimizes spatial enlargement — mirroring the 4-d
        clustering goal of the mapped space.
        """
        leaf_entry = self._pending_leaf
        spatial = internal_entry.rect.enlargement(target)
        if leaf_entry is None:
            return (0.0, 0.0, spatial)
        new_bits = (leaf_entry.mask & ~internal_entry.summary).bit_count()
        text_cost = new_bits / max(1, self.vocab_size)
        score_cost = max(0.0, leaf_entry.score - internal_entry.max_score)
        return (text_cost, score_cost, spatial)

    _pending_leaf: FeatureLeafEntry | None = None

    def insert(self, leaf_entry: FeatureLeafEntry) -> None:
        self._pending_leaf = leaf_entry
        try:
            super().insert(leaf_entry)
        finally:
            self._pending_leaf = None
