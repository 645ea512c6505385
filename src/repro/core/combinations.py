"""Valid-combination retrieval — the heart of STPS (Section 6, Alg. 4).

Yields combinations ``C = (t_1, ..., t_c)``, one feature (or the virtual
``∅``) per feature set, in non-increasing combined score ``s(C) = Σ s(t_i)``,
drawing features from the per-set sorted streams only as needed:

* **thresholding scheme** — a combination is released only once its score
  reaches ``τ = max_j (max_1 + ... + min_j + ... + max_c)``, the best
  score any not-yet-formed combination could achieve (``max_l`` = best
  score in set ``l``, ``min_j`` = best score still obtainable from set
  ``j``'s stream);
* **pulling strategy** — the paper's *prioritized* strategy
  (Definition 5): pull from the set responsible for the current
  threshold, the one :meth:`CombinationIterator._threshold` names;
* **validity** — the query's variant object decides each popped tuple:
  for the range variant, real members pairwise within ``2r``
  (Definition 4 / Lemma 1); the influence and NN variants have no range
  predicate and so no such filter, as Section 7 prescribes.

Combinations are assembled by a rank join driven by each pull: a feature
``t`` arriving in set ``i`` is, by construction, the last-pulled member of
every combination it forms with the features pulled before it, so those
combinations — and only those — are seeded when it arrives.  The variant
object names its partners in each other set: for the range variant those
within ``2r`` of it, from a miss-first hash grid; otherwise every pulled
feature.  Each arrival pushes small sub-lattices ``{t} × N_j(t) × …`` of
score-sorted partner lists (seed ``(0,...,0)``; a popped tuple pushes
its single-increment successors), so every combination is produced
exactly once, in the non-increasing score order of the paper's eager
``validCombinations``.  The variant objects live in
:mod:`repro.core.stps`, which picks one per query.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.query import PreferenceQuery
from repro.core.results import QueryStats
from repro.core.stream import FeatureStream, StreamedFeature
from repro.errors import QueryError
from repro.index.feature_tree import FeatureTree
from repro.obs.explain import MAX_TRAJECTORY
from repro.obs import tracing as _tracing

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Combination:
    """A combination of feature objects with its combined score."""

    features: tuple[StreamedFeature, ...]
    score: float

    @property
    def anchors(self) -> tuple[tuple[float, float], ...]:
        """Locations of the real (non-virtual) members."""
        return tuple(
            (f.x, f.y) for f in self.features if not f.is_virtual
        )

    @property
    def is_all_virtual(self) -> bool:
        return all(f.is_virtual for f in self.features)


class CombinationIterator:
    """Iterator over combinations in non-increasing score order, joined
    by ``variant``'s rule: ``variant.partners(pulled, i, arrival)`` gives
    the non-empty partner lists of each sub-lattice an arrival in set
    ``i`` heads, and ``variant.valid(combo)`` decides a popped tuple."""

    def __init__(
        self,
        feature_trees: Sequence[FeatureTree],
        query: PreferenceQuery,
        variant,
        recorder=None,
        stats: QueryStats | None = None,
    ) -> None:
        if len(feature_trees) != query.c:
            raise QueryError(
                f"query addresses {query.c} feature sets, got "
                f"{len(feature_trees)} trees"
            )
        self.variant = variant
        # Phase recorder (repro.obs.tracing): times the feature pulls,
        # threshold updates and combination assembly separately so a
        # query's `phase_times` mirrors the anatomy of Algorithm 4.
        self.recorder = (
            recorder if recorder is not None else _tracing.NULL_RECORDER
        )
        # The query's accumulator: pulling rounds (Definition 5), Lemma 1
        # accept/reject decisions and, via the streams, per-set traversal.
        self.stats = stats or QueryStats()
        self.c = query.c
        self.streams = [
            FeatureStream(
                tree, mask, query.lam, stats=self.stats.feature_set(i)
            )
            for i, (tree, mask) in enumerate(
                zip(feature_trees, query.keyword_masks)
            )
        ]
        self.pulled: list[list[StreamedFeature]] = [[] for _ in range(self.c)]
        # Upper bound of each set's best score; tightened to the exact max
        # on the first pull (the paper sets max_i at first access).
        self.set_max: list[float] = [
            s.next_bound if s.next_bound is not None else 0.0
            for s in self.streams
        ]
        # (-score, push counter, idx, dim, partners, limits): position
        # ``idx`` of one arrival's sub-lattice, whose per-set partner
        # sequences are readable up to ``limits``.  Successors advance
        # coordinates ``>= dim`` only, which reaches every position of the
        # sub-lattice exactly once without a visited set.
        self._heap: list[tuple] = []
        self._counter = 0
        # Seed: one pull per set guarantees every list is non-empty (a
        # stream always yields at least the virtual feature).
        for i in range(self.c):
            self._pull(i)

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def next(self) -> Combination | None:
        """Next combination by descending score, or None when done."""
        rec = self.recorder
        stats = self.stats
        detail = stats.detail
        heap = self._heap
        while True:
            # Once per pull: off, the phase spans are skipped outright
            # rather than entered as null context managers.
            if rec.active:
                with rec.span("stps.threshold_update"):
                    threshold, source = self._threshold()
            else:
                threshold, source = self._threshold()
            if heap and -heap[0][0] >= threshold - _EPS:
                with rec.span("stps.combination_assembly"):
                    combo = self._pop()
                    valid = self.variant.valid(combo)
                if valid:
                    stats.combinations += 1
                    return combo
                stats.rejected_2r += 1
                continue
            if source is None:
                return None  # τ = -inf released everything formable
            stream = self.streams[source]
            stream.stats.pull_rounds += 1
            if detail is not None and len(detail.trajectory) < MAX_TRAJECTORY:
                detail.trajectory.append((
                    stats.pull_rounds, source, threshold,
                    stream.next_bound or 0.0,
                ))
            self._pull(source)

    # ------------------------------------------------------------------
    # thresholding scheme and pulling strategy
    # ------------------------------------------------------------------
    def _threshold(self) -> tuple[float, int | None]:
        """τ of Alg. 4 and the set responsible for it (Definition 5).

        τ is the best score of any combination not yet formable; the
        set is None (and τ ``-inf``) once every stream is exhausted.
        """
        best = -math.inf
        source = None
        set_max = self.set_max
        total_max = sum(set_max)
        for j, stream in enumerate(self.streams):
            bound = stream.next_bound
            if bound is None:
                continue
            candidate = total_max - set_max[j] + bound
            if candidate > best:
                best = candidate
                source = j
        return best, source

    # ------------------------------------------------------------------
    # join on pull
    # ------------------------------------------------------------------
    def _pull(self, i: int) -> None:
        """One pulling round: sorted access, then the join on arrival."""
        rec = self.recorder
        # Never None: a stream whose ``next_bound`` is set delivers at
        # least its virtual feature.
        if rec.active:
            with rec.span("stps.feature_pull", feature_set=i):
                feature = self.streams[i].next()
            with rec.span("stps.combination_assembly"):
                self._join(i, feature)
        else:
            self._join(i, self.streams[i].next())

    def _join(self, i: int, feature: StreamedFeature) -> None:
        """File the arrival and seed the combinations it completes."""
        pulled = self.pulled[i]
        if not pulled:
            self.set_max[i] = feature.score
        pulled.append(feature)
        for partners in self.variant.partners(self.pulled, i, feature):
            # ``pulled[j]`` keeps growing; the limit freezes the view at
            # the features that preceded this arrival (later ones seed
            # their own).
            self._push(partners, tuple(len(p) for p in partners), (0,) * self.c, 0)

    def _push(self, partners, limits, idx: tuple[int, ...], dim: int) -> None:
        score = sum(partners[j][idx[j]].score for j in range(self.c))
        self._counter += 1
        heapq.heappush(
            self._heap, (-score, self._counter, idx, dim, partners, limits)
        )

    def _pop(self) -> Combination:
        """Take the best pending tuple, queueing its successors."""
        neg, _, idx, dim, partners, limits = heapq.heappop(self._heap)
        for j in range(dim, self.c):
            if idx[j] + 1 < limits[j]:
                successor = idx[:j] + (idx[j] + 1,) + idx[j + 1 :]
                self._push(partners, limits, successor, j)
        features = tuple(partners[j][idx[j]] for j in range(self.c))
        return Combination(features, -neg)
