"""IR-tree style baseline: spatial clustering with exact summaries.

The IR-tree of Cong et al. [6, 11] augments an R-tree with per-node
inverted files, i.e. *exact* knowledge of which terms appear below each
node.  Re-cast into this repo's bitmask machinery, that is an R-tree
built on spatial location only (like the IR²-tree) whose node summaries
are exact keyword-union masks (like the SRT-index).

It is included as an extension baseline because it isolates the two
ingredients of the SRT-index's advantage:

* **summary fidelity** — IR-tree vs IR²-tree differ only in exact union
  vs lossy signature;
* **clustering** — SRT vs IR-tree differ only in the 4-d mapped build
  order vs spatial-only build order.

The ``ablation_index`` experiment measures all three side by side.
"""

from __future__ import annotations

import numpy as np

from repro.index.feature_tree import FeatureScorer, FeatureTree
from repro.index.nodes import FeatureLeafEntry
from repro.index.rtree_base import spatial_sort_keys
from repro.text.similarity import overlap_ratio


class IRTree(FeatureTree):
    """Spatially-built R-tree with exact keyword-union summaries."""

    def summary_bytes(self) -> int:
        # Exact union mask, same width as the leaf masks.
        return (self.vocab_size + 7) // 8

    def leaf_summary(self, mask: int) -> int:
        return mask

    def bulk_sort_keys(self, entries: list[FeatureLeafEntry]) -> np.ndarray:
        """Spatial Hilbert keys only, exactly like the IR²-tree."""
        return spatial_sort_keys(entries)

    def make_scorer(self, query_mask: int, lam: float) -> FeatureScorer:
        def sim_upper(summary: int) -> float:
            return overlap_ratio(summary, query_mask)

        return FeatureScorer(query_mask, lam, sim_upper)

    def metadata(self) -> dict:
        return {
            "kind": "irtree",
            "vocab_size": self.vocab_size,
            "page_size": self.pagefile.page_size,
        }
