"""Query definitions for top-k spatio-textual preference queries.

Problem 1 of the paper: a query is defined by an integer ``k``, a radius
``r``, a smoothing parameter ``λ`` and one keyword set ``W_i`` per feature
set.  Section 7 adds two score variants (influence, nearest neighbor) that
reuse the same query shape; the variant is part of the query here.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import QueryError
from repro.model.dataset import FeatureDataset


class Variant(enum.Enum):
    """Score variant (Definitions 2, 6 and 7)."""

    RANGE = "range"
    INFLUENCE = "influence"
    NEAREST = "nearest"


@dataclass(frozen=True, slots=True)
class PreferenceQuery:
    """A top-k spatio-textual preference query.

    ``keyword_masks`` holds one keyword bit mask per feature set, aligned
    with the processor's feature-tree list; build it from strings with
    :meth:`from_terms`.
    """

    k: int
    radius: float
    lam: float
    keyword_masks: tuple[int, ...]
    variant: Variant = Variant.RANGE

    def __post_init__(self) -> None:
        if self.k < 0:
            raise QueryError(f"k must be >= 0, got {self.k}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise QueryError(
                f"radius must be positive and finite, got {self.radius}"
            )
        if not 0.0 <= self.lam <= 1.0:
            raise QueryError(f"lambda must be in [0, 1], got {self.lam}")
        if not self.keyword_masks:
            raise QueryError("query needs at least one feature set")
        if any(m < 0 for m in self.keyword_masks):
            raise QueryError("negative keyword mask")
        if any(m == 0 for m in self.keyword_masks):
            raise QueryError(
                "every feature set needs at least one query keyword "
                "(Definition 2 requires sim > 0, so an empty keyword set "
                "makes the feature set unsatisfiable)"
            )

    @property
    def c(self) -> int:
        """Number of feature sets addressed by the query."""
        return len(self.keyword_masks)

    @classmethod
    def from_terms(
        cls,
        k: int,
        radius: float,
        lam: float,
        keywords: Sequence[Iterable[str]],
        feature_sets: Sequence[FeatureDataset],
        variant: Variant = Variant.RANGE,
    ) -> "PreferenceQuery":
        """Build a query from keyword strings.

        ``keywords[i]`` is resolved against ``feature_sets[i]``'s
        vocabulary; unknown terms are dropped (they can never match), and
        a feature set whose keywords are all unknown raises
        :class:`QueryError`.
        """
        if len(keywords) != len(feature_sets):
            raise QueryError(
                f"{len(keywords)} keyword sets for {len(feature_sets)} "
                "feature sets"
            )
        masks = []
        for i, (terms, dataset) in enumerate(zip(keywords, feature_sets)):
            terms = list(terms)
            mask = 0
            for term_id in dataset.vocabulary.encode(terms):
                mask |= 1 << term_id
            if mask == 0:
                raise QueryError(
                    f"feature set {i}: none of the keywords {terms!r} are "
                    "in the vocabulary"
                )
            masks.append(mask)
        return cls(k, radius, lam, tuple(masks), variant)

    def with_variant(self, variant: Variant) -> "PreferenceQuery":
        """Copy of this query under a different score variant."""
        return PreferenceQuery(
            self.k, self.radius, self.lam, self.keyword_masks, variant
        )
