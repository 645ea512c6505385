"""Modified IR²-tree baseline (Felipe et al. [8], adapted per Section 8).

The original IR²-tree is an R-tree combined with signature files: every
node carries a superimposed-coding signature of the keywords below it.
The paper modifies it for preference queries: "we add to the leaf nodes of
IR²-Tree the scoring values for the feature objects, and maintain in
ancestor (internal) nodes the maximum score of all enclosed feature
objects".

Construction clusters by *spatial* proximity only (that is the point of
the comparison — the SRT-index also clusters by score and text, the
IR²-tree does not), so its node bounds are looser and STPS/STDS expand
more entries on it.
"""

from __future__ import annotations

from repro.hilbert.curve import hilbert_key_2d
from repro.index.feature_tree import FeatureScorer, FeatureTree
from repro.index.nodes import FeatureLeafEntry
from repro.storage.node_cache import DEFAULT_BUFFER_PAGES
from repro.storage.pagefile import PageFile
from repro.text.signature import SignatureScheme
from repro.text.similarity import mask_to_ids

IR2_KEY_BITS = 16


class IR2Tree(FeatureTree):
    """Spatially-built R-tree with per-node signatures and max scores."""

    def __init__(
        self,
        vocab_size: int,
        pagefile: PageFile | None = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        scheme: SignatureScheme | None = None,
    ) -> None:
        self.scheme = scheme or SignatureScheme.for_vocabulary(vocab_size)
        super().__init__(vocab_size, pagefile, buffer_pages)

    def summary_bytes(self) -> int:
        return self.scheme.byte_length

    def leaf_summary(self, mask: int) -> int:
        return self.scheme.from_mask(mask)

    def bulk_sort_key(self, entry: FeatureLeafEntry) -> int:
        """Spatial Hilbert key only — the IR²-tree ignores score & text."""
        return hilbert_key_2d(entry.x, entry.y, IR2_KEY_BITS)

    def make_scorer(self, query_mask: int, lam: float) -> FeatureScorer:
        query_ids = tuple(mask_to_ids(query_mask))
        n_terms = max(1, len(query_ids))
        scheme = self.scheme

        def sim_upper(summary: int) -> float:
            # A query term MAY occur below the node iff all its signature
            # bits are set (false positives possible, never negatives),
            # so the match count / |W| upper-bounds descendant Jaccard.
            return scheme.matching_terms(summary, query_ids) / n_terms

        return FeatureScorer(query_mask, lam, sim_upper)

    def metadata(self) -> dict:
        return {
            "kind": "ir2",
            "vocab_size": self.vocab_size,
            "page_size": self.pagefile.page_size,
            "signature_bits": self.scheme.signature_bits,
            "bits_per_term": self.scheme.bits_per_term,
        }
