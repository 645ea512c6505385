"""LRU result cache keyed on canonical query signature, kept coherent
with a live dataset by replaying its mutation deltas.

Serving millions of users means heavy query-*key* skew: the same few
(query, algorithm) pairs arrive over and over from many
different tenants.  The cache key is deliberately **tenant-agnostic** —
a :class:`~repro.core.query.PreferenceQuery` is a frozen value type, so
two tenants asking the same question share one cached answer (query
evaluation is deterministic and results are immutable; quotas are
enforced *before* the cache so a hot key never launders an exhausted
tenant's traffic past its bucket).

Coherence contract: an entry is served only while it is provably the
answer over the current world.  Every entry carries its query and the
*epoch* it was last validated at: the fronted live dataset's
:attr:`~repro.live.LiveDataset.version` (0, and never moving, with no
dataset).  :meth:`ResultCache.get` serves an entry stamped with the
current epoch as is; one that is behind asks the dataset to replay the
mutations since its stamp (:meth:`repro.live.LiveDataset.revalidate`,
rules R1-R5 of :mod:`repro.core.coherence`) and is re-stamped and served
if every one is harmless, else dropped as stale.  Any doubt is stale: an
entry older than the dataset's log, one filled without its query.  A
fill whose miss overlapped *any* mutation is dropped
(:meth:`ResultCache.put`): its answer may predate the write.  The cache
registers nothing on the dataset, so dropping it frees it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.query import PreferenceQuery
from repro.core.results import QueryResult
from repro.errors import ReproError
from repro.obs import metrics as _metrics

#: Metric families owned by the serving cache (reset scope).
CACHE_METRIC_FAMILIES = ("repro_serve_cache_total",)


def cache_outcomes_metric(
    reg: "_metrics.MetricsRegistry",
) -> "_metrics.MetricFamily":
    """Cache lookups by outcome: hit / miss / stale, and ``revalidated``
    for the hits that replayed deltas; fills and evictions."""
    return reg.counter(
        "repro_serve_cache_total",
        "Serving result-cache events.",
        ("event",),
    )


def query_signature(query: PreferenceQuery, algorithm: str) -> tuple:
    """The canonical, tenant-agnostic identity of one serving request.

    Everything that can change the *answer* is in the key; the tenant
    cannot, and is excluded, maximising cross-tenant sharing.
    """
    return (
        algorithm,
        query.k,
        query.radius,
        query.lam,
        query.variant.value,
        query.keyword_masks,
    )


class ResultCache:
    """Bounded LRU of immutable :class:`QueryResult`\\ s, each with the
    epoch it was last validated at and the query it answers.  ``live``
    is the :class:`~repro.live.LiveDataset` the results come from, or
    None when nothing mutates them."""

    def __init__(self, max_entries: int = 4096, live=None) -> None:
        if max_entries < 1:
            raise ReproError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.live = live
        self._lock = threading.Lock()
        self._entries: OrderedDict[
            tuple, tuple[int, PreferenceQuery | None, QueryResult]
        ] = OrderedDict()
        # The outcome family, looked up once per metrics registry.
        self._outcomes = _metrics.per_registry(cache_outcomes_metric)
        self.hits = 0
        self.revalidated = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0

    @property
    def epoch(self) -> int:
        """The dataset's mutation version; 0 with no dataset."""
        return 0 if self.live is None else self.live.version

    # ------------------------------------------------------------------
    # lookup / fill
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> QueryResult | None:
        """The cached result for ``key``, or None (miss or stale)."""
        outcomes = self._outcomes()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                outcomes.labels(event="miss").inc()
                return None
            stamp, query, result = entry
            if stamp == self.epoch:
                self._entries.move_to_end(key)
                self.hits += 1
                outcomes.labels(event="hit").inc()
                return result
        # Replayed outside the lock: R3 and R5 score on the trees.
        proven = None
        if query is not None:
            proven = self.live.revalidate(query, result.items, stamp)
        with self._lock:
            untouched = self._entries.get(key) is entry
            if proven is not None:
                if untouched:
                    self._entries[key] = (proven, query, result)
                    self._entries.move_to_end(key)
                self.hits += 1
                self.revalidated += 1
                outcomes.labels(event="hit").inc()
                outcomes.labels(event="revalidated").inc()
                return result
            if untouched:
                del self._entries[key]
            self.stale += 1
            outcomes.labels(event="stale").inc()
            return None

    def put(
        self,
        key: tuple,
        result: QueryResult,
        epoch: int | None = None,
        query: PreferenceQuery | None = None,
    ) -> bool:
        """Fill ``key``, evicting LRU past the cap; False if dropped.

        ``epoch`` is the :attr:`epoch` read *before* ``result`` was
        computed.  When a mutation bumped the epoch since, the result may
        predate it and is dropped rather than stamped fresh.  Omit it
        only when nothing can bump between computing and filling.
        ``query`` is what ``result`` answers; an entry filled without it
        cannot be re-validated and goes stale on the next mutation.
        """
        with self._lock:
            current = self.epoch
            if epoch is not None and epoch != current:
                self._outcomes().labels(event="fill_stale").inc()
                return False
            self._entries[key] = (current, query, result)
            self._entries.move_to_end(key)
            self._outcomes().labels(event="fill").inc()
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._outcomes().labels(event="evict").inc()
            return True

    def clear(self) -> int:
        """Drop every entry (epoch unchanged); returns how many."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits / lookups since construction (stale lookups count as misses)."""
        total = self.hits + self.misses + self.stale
        return self.hits / total if total else 0.0

    def describe(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "epoch": self.epoch,
                "hits": self.hits,
                "revalidated": self.revalidated,
                "misses": self.misses,
                "stale": self.stale,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4),
            }
