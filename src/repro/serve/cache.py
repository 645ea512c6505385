"""Epoch-invalidated LRU result cache keyed on canonical query signature.

Serving millions of users means heavy query-*key* skew: the same few
(query, algorithm, pulling) combinations arrive over and over from many
different tenants.  The cache key is deliberately **tenant-agnostic** —
a :class:`~repro.core.query.PreferenceQuery` is a frozen value type, so
two tenants asking the same question share one cached answer (query
evaluation is deterministic and results are immutable; quotas are
enforced *before* the cache so a hot key never launders an exhausted
tenant's traffic past its bucket).

Coherence under live mutation is epoch-based: every entry is stamped
with the cache epoch its answer was computed under (a fill whose epoch
moved while the miss was executing is dropped), and
:meth:`ResultCache.get` rejects entries from an older epoch (lazy
eviction — no scan).  The
epoch advances via :meth:`ResultCache.bump` — wired to
:meth:`repro.live.LiveBase.add_mutation_listener` by
:meth:`ResultCache.attach_live`, so any insert/delete/move/rescore on
the live dataset instantly invalidates every cached answer.  One global
epoch per cache is deliberately coarse: a mutation *could* be scoped to
the queries whose radius touches it, but the zipf head refills in a few
requests and coarse invalidation is provably coherent.
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


def cache_outcomes_metric() -> "_metrics.MetricFamily":
    """Cache lookups by outcome: hit / miss / stale; fills and evictions.

    Lazily resolved against the current default registry (the pattern
    established by :func:`repro.live.dataset.live_mutations_metric`) so
    test-scoped registries see serving-cache traffic.
    """
    return _metrics.registry().counter(
        "repro_serve_cache_total",
        "Serving result-cache events.",
        ("event",),
    )


def query_signature(
    query: PreferenceQuery, algorithm: str, pulling: str
) -> tuple:
    """The canonical, tenant-agnostic identity of one serving request.

    Everything that can change the *answer* is in the key; the tenant
    cannot, and is excluded, maximising cross-tenant sharing.
    """
    return (
        algorithm,
        pulling,
        query.k,
        query.radius,
        query.lam,
        query.variant.value,
        query.keyword_masks,
    )


class ResultCache:
    """Bounded LRU of immutable :class:`QueryResult`\\ s with epochs."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ReproError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[int, QueryResult]] = (
            OrderedDict()
        )
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0
        self._detach = None

    # ------------------------------------------------------------------
    # epoch / invalidation
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    def bump(self) -> int:
        """Advance the epoch: every current entry becomes stale at once."""
        with self._lock:
            self._epoch += 1
            return self._epoch

    def attach_live(self, live) -> None:
        """Invalidate on every mutation of a ``repro.live`` dataset.

        Registers a mutation listener on ``live`` (any
        :class:`~repro.live.LiveBase` subclass) that bumps the epoch;
        the listener runs after the index write committed, so a get()
        racing a mutation can serve the *pre*-mutation answer but never
        a torn one, and the first get() after the listener fired misses.
        """
        listener = self._on_mutation
        live.add_mutation_listener(listener)
        previous = self._detach
        self._detach = lambda: (
            live.remove_mutation_listener(listener),
            previous() if previous else None,
        )

    def detach(self) -> None:
        """Unregister every listener installed by :meth:`attach_live`."""
        if self._detach is not None:
            detach, self._detach = self._detach, None
            detach()

    def _on_mutation(self, target: str, op: str) -> None:
        self.bump()

    # ------------------------------------------------------------------
    # lookup / fill
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> QueryResult | None:
        """The cached result for ``key``, or None (miss or stale)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                cache_outcomes_metric().labels(event="miss").inc()
                return None
            epoch, result = entry
            if epoch != self._epoch:
                del self._entries[key]
                self.stale += 1
                cache_outcomes_metric().labels(event="stale").inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            cache_outcomes_metric().labels(event="hit").inc()
            return result

    def put(
        self, key: tuple, result: QueryResult, epoch: int | None = None
    ) -> bool:
        """Fill ``key``, evicting LRU past the cap; False if dropped.

        ``epoch`` is the :attr:`epoch` read *before* ``result`` was
        computed.  When a mutation bumped the epoch since, the result may
        predate it and is dropped rather than stamped fresh.  Omit it
        only when nothing can bump between computing and filling.
        """
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                cache_outcomes_metric().labels(event="fill_stale").inc()
                return False
            self._entries[key] = (self._epoch, result)
            self._entries.move_to_end(key)
            cache_outcomes_metric().labels(event="fill").inc()
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                cache_outcomes_metric().labels(event="evict").inc()
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

    def estimated_bytes(self) -> int:
        """Rough retained size of the cached results.

        Per entry: the key tuple + OrderedDict slot (~200 B) and the
        result items (~88 B each: a ResultItem holds four floats/ints
        plus object headers).  Good enough for a capacity-planning
        gauge; not an accounting figure.
        """
        with self._lock:
            items = sum(
                len(result.items) for _, result in self._entries.values()
            )
            return 200 * len(self._entries) + 88 * items

    def describe(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "epoch": self._epoch,
                "hits": self.hits,
                "misses": self.misses,
                "stale": self.stale,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4),
            }
