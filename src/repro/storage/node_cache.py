"""Node LRU cache — the one cache between an index and its page file.

The storage hierarchy seen by an index is::

    pagefile (simulated disk)  ->  NodeCache

A cached :class:`~repro.index.nodes.Node` holds its page payload and
everything derived from it: an internal node's entry objects, a leaf's
array views and per-query score memo, a level-1 feature node's
concatenation of its leaves' columns (``leafdata.SiblingBlock``).  A
warm lookup is a dict hit (~1 µs) where re-reading the page costs a CRC pass plus fresh views, and
the memo can only live on an object that survives between visits — which
is why leaves are cached too.  The cache is keyed by page id and must be
explicitly invalidated whenever a page is rewritten
(``RTreeBase.write_node`` does this and then re-caches the node it wrote,
so readers never observe a stale image).

Hits and misses are recorded on the owning page file's :class:`IOStats`
(as ``node_cache_hits`` / ``node_cache_misses``) so per-query accounting
can surface them; a hit additionally counts as a buffer hit because it
serves one logical read without touching the disk.

A capacity of 0 disables the cache entirely: every ``get`` misses and
``put`` is a no-op, which is the reference behaviour the parity tests
compare against.  All operations take an internal lock so read-only
traversals may share one tree across threads (see
:mod:`repro.core.executor`).
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.errors import StorageError

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.index.nodes import Node
    from repro.storage.stats import IOStats

#: Default cache capacity in nodes (= pages) per tree.
DEFAULT_BUFFER_PAGES = 256


class NodeCache:
    """Fixed-capacity LRU cache of :class:`~repro.index.nodes.Node`s.

    ``stats`` (optional) is the :class:`IOStats` of the page file backing
    the tree; when present, hits and misses are recorded there.
    """

    def __init__(self, capacity: int, stats: "IOStats | None" = None) -> None:
        if capacity < 0:
            raise StorageError(
                f"node cache capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity
        self.stats = stats
        self._cache: OrderedDict[int, "Node"] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def get(self, page_id: int) -> "Node | None":
        """Cached node for ``page_id``, or None (recorded as a miss)."""
        with self._lock:
            node = self._cache.get(page_id)
            if node is None:
                self.misses += 1
                if self.stats is not None:
                    self.stats.record_node_cache_miss()
                return None
            self._cache.move_to_end(page_id)
            self.hits += 1
            if self.stats is not None:
                self.stats.record_node_cache_hit()
            return node

    def put(self, node: "Node") -> None:
        """Insert/refresh a node, evicting LRU entries past capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._cache[node.page_id] = node
            self._cache.move_to_end(node.page_id)
            while len(self._cache) > self.capacity:
                evicted, _ = self._cache.popitem(last=False)
                if logger.isEnabledFor(logging.DEBUG):
                    logger.debug(
                        "node cache full (%d): evicted page %d for page %d",
                        self.capacity, evicted, node.page_id,
                    )

    def invalidate(self, page_id: int) -> None:
        """Drop one page's decoded node (call before rewriting the page)."""
        with self._lock:
            self._cache.pop(page_id, None)

    def clear(self) -> int:
        """Empty the cache (cold-cache runs); returns #nodes dropped."""
        with self._lock:
            dropped = len(self._cache)
            self._cache.clear()
        if dropped and logger.isEnabledFor(logging.DEBUG):
            logger.debug("node cache cleared: %d decoded nodes dropped", dropped)
        return dropped

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (capacity and contents preserved)."""
        with self._lock:
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def peek(self, page_id: int) -> "Node | None":
        """Cached node without touching counters or LRU order.

        For coherence checks and tests; the query path reads through
        :meth:`get` so hit accounting stays truthful, and asks only
        :meth:`peek_all` whether a node's children are resident.
        """
        with self._lock:
            return self._cache.get(page_id)

    def peek_all(self, page_ids: list[int]) -> "list[Node] | None":
        """:meth:`peek` of every page, or None unless all are cached.

        One lock for the lot; like :meth:`peek` it counts nothing and
        leaves the LRU order alone, so a caller may ask what is resident
        without changing what any query counts (the stream's sibling
        pass, ``FeatureTree.score_leaves``).
        """
        with self._lock:
            get = self._cache.get
            nodes = [get(page_id) for page_id in page_ids]
        return None if None in nodes else nodes

    def page_ids(self) -> list[int]:
        """Page ids currently cached (LRU order, oldest first)."""
        with self._lock:
            return list(self._cache)

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses); 0.0 before any access."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._cache
