"""LRU result cache keyed on canonical query signature, kept coherent
with a live dataset by replaying its mutation deltas.

Serving millions of users means heavy query-*key* skew: the same few
(query, algorithm, pulling) combinations arrive over and over from many
different tenants.  The cache key is deliberately **tenant-agnostic** —
a :class:`~repro.core.query.PreferenceQuery` is a frozen value type, so
two tenants asking the same question share one cached answer (query
evaluation is deterministic and results are immutable; quotas are
enforced *before* the cache so a hot key never launders an exhausted
tenant's traffic past its bucket).

Coherence contract: an entry is served only while it is provably the
answer over the current world.  Every entry carries its query and the
cache *epoch* it was last validated at; the epoch advances once per
mutation of the attached :class:`repro.live.LiveBase`
(:meth:`ResultCache.attach_live`), whose listener also appends the
mutation's delta ``(target, op, set_id, old, new)`` to a bounded log —
one append, so the write path stays O(1).  :meth:`ResultCache.get`
serves an entry stamped with the current epoch as is; one that is
behind has the deltas since its stamp replayed through
:func:`repro.core.coherence.answer_survives` (rules R1-R5 there: an
irrelevant feature, a feature out of reach of every reported object and
too weak to lift another past the k-th score, an unreported object
leaving, a new object scoring below the k-th) and is re-stamped and
served if every one is harmless, else dropped as stale.  Any doubt is
stale: an entry older than the log, one filled without its query, an
unscoped :meth:`ResultCache.bump`.  A fill whose miss overlapped *any*
mutation is dropped (:meth:`ResultCache.put`): its answer may predate
the write.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from itertools import islice

from repro.core.coherence import answer_survives
from repro.core.query import PreferenceQuery
from repro.core.results import QueryResult
from repro.errors import ReproError
from repro.obs import metrics as _metrics

#: Metric families owned by the serving cache (reset scope).
CACHE_METRIC_FAMILIES = ("repro_serve_cache_total",)

#: Mutation deltas kept for replay.  An entry last validated more
#: mutations ago than this cannot be re-validated and is stale.
DELTA_LOG = 1024


def cache_outcomes_metric() -> "_metrics.MetricFamily":
    """Cache lookups by outcome: hit / miss / stale, and ``revalidated``
    for the hits that replayed deltas; fills and evictions."""
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
    """Bounded LRU of immutable :class:`QueryResult`\\ s, each with the
    epoch it was last validated at and the query it answers."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ReproError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[
            tuple, tuple[int, PreferenceQuery | None, QueryResult]
        ] = OrderedDict()
        self._epoch = 0
        #: The deltas of the last ``len(_deltas)`` epochs, oldest first.
        self._deltas: deque[tuple] = deque(maxlen=DELTA_LOG)
        self._live = None
        self.hits = 0
        self.revalidated = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # epoch / invalidation
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    def bump(self) -> int:
        """Unscoped invalidation: every current entry becomes stale."""
        with self._lock:
            self._epoch += 1
            self._deltas.clear()
            return self._epoch

    def attach_live(self, live) -> None:
        """Track the mutations of a ``repro.live`` dataset.

        Registers a mutation listener on ``live`` (any
        :class:`~repro.live.LiveBase` subclass; a cache fronts one
        dataset, so attaching replaces an earlier attachment).  The
        listener runs after the index write committed, so a get() racing
        a mutation can serve the *pre*-mutation answer but never a torn
        one, and the first get() after the listener fired sees its delta.
        """
        self.detach()
        live.add_mutation_listener(self._on_mutation)
        self._live = live

    def detach(self) -> None:
        """Unregister the listener installed by :meth:`attach_live`."""
        live, self._live = self._live, None
        if live is not None:
            live.remove_mutation_listener(self._on_mutation)

    def _on_mutation(self, target, op, set_id, old, new) -> None:
        with self._lock:
            self._epoch += 1
            self._deltas.append((target, op, set_id, old, new))

    # ------------------------------------------------------------------
    # lookup / fill
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> QueryResult | None:
        """The cached result for ``key``, or None (miss or stale)."""
        outcomes = cache_outcomes_metric()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                outcomes.labels(event="miss").inc()
                return None
            stamp, query, result = entry
            epoch = self._epoch
            if stamp == epoch:
                self._entries.move_to_end(key)
                self.hits += 1
                outcomes.labels(event="hit").inc()
                return result
            behind = epoch - stamp
            deltas = None
            if query is not None and behind <= len(self._deltas):
                deltas = list(islice(reversed(self._deltas), behind))
            live = self._live
        # Replayed outside the lock: R5 runs Algorithm 2 on the trees.
        survived = deltas is not None and answer_survives(
            query, result.items, deltas, getattr(live, "object_score", None)
        )
        with self._lock:
            untouched = self._entries.get(key) is entry
            if survived:
                if untouched:
                    self._entries[key] = (epoch, query, result)
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
            if epoch is not None and epoch != self._epoch:
                cache_outcomes_metric().labels(event="fill_stale").inc()
                return False
            self._entries[key] = (self._epoch, query, result)
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
        """Rough retained size of the cached results and the delta log.

        Per entry: the key tuple + OrderedDict slot + its query (~300 B)
        and the result items (~88 B each: a ResultItem holds four
        floats/ints plus object headers); per logged delta ~250 B (the
        tuple and the one or two dataset objects it keeps alive).  Good
        enough for a capacity-planning gauge; not an accounting figure.
        """
        with self._lock:
            items = sum(
                len(result.items) for _, _, result in self._entries.values()
            )
            return (
                300 * len(self._entries)
                + 88 * items
                + 250 * len(self._deltas)
            )

    def describe(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "epoch": self._epoch,
                "hits": self.hits,
                "revalidated": self.revalidated,
                "misses": self.misses,
                "stale": self.stale,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4),
            }
