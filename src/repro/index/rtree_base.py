"""Shared R-tree machinery: paging, bulk loading, insertion, splitting.

All three indexes in the repo (object R-tree, SRT-index, IR²-tree) are
R-trees over the paged storage layer; they differ only in entry contents,
per-node aggregates and build order.  This base class implements the parts
they share:

* node read/write against the page file under one
  :class:`~repro.storage.node_cache.NodeCache` (every node occupies
  exactly one page, so node accesses are the I/Os the benchmarks count);
* bottom-up bulk loading from a sorted run of leaf entries — the
  "bulk insertion [9]" (Kamel & Faloutsos) build the paper uses;
* classic Guttman insertion with quadratic split, for the incremental
  build path (extension / ablation);
* a metadata page (page 0) so trees persisted in a
  :class:`~repro.storage.pagefile.DiskPageFile` can be reopened.

Subclasses provide the codec, how to derive an internal (parent) entry
from a child node — which is where the SRT/IR² aggregates are maintained —
and the bulk-load sort keys.
"""

from __future__ import annotations

import json
import time
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import IndexError_, StorageError
from repro.hilbert.curve import HilbertCurve
from repro.obs import tracing as _tracing
from repro.geometry.rect import Rect
from repro.storage.node_cache import DEFAULT_BUFFER_PAGES, NodeCache
from repro.storage.page import Page
from repro.storage.pagefile import MemoryPageFile, PageFile
from repro.storage.stats import IOStats
from repro.index.nodes import LEAF_LAYOUT, LEAF_LEVEL, Node

DEFAULT_FILL = 0.9
MIN_FILL_RATIO = 0.4
META_PAGE_ID = 0
#: Bits per axis of the 2-d spatial bulk-load key.
SPATIAL_KEY_BITS = 16


def spatial_sort_keys(entries: Sequence) -> np.ndarray:
    """2-d Hilbert keys of the entries' ``(x, y)`` in the unit square —
    the spatial bulk-load order (object tree, IR²-tree)."""
    xy = np.array([(e.x, e.y) for e in entries], dtype=np.float64)
    return HilbertCurve(2, SPATIAL_KEY_BITS).encode_unit(xy.reshape(-1, 2).T)


class RTreeBase(ABC):
    """Common R-tree core; see module docstring."""

    def __init__(
        self,
        pagefile: PageFile | None = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ) -> None:
        self.pagefile = pagefile if pagefile is not None else MemoryPageFile()
        self.root_id: int | None = None
        self.height = 0
        self.count = 0
        self._meta_page_id: int | None = None
        # The one cache between a query and the page file: ``buffer_pages``
        # nodes, each holding its page payload plus whatever was derived
        # from it (see repro.storage.node_cache).  A hit counts as a
        # buffer hit (one logical read served from memory); 0 disables it.
        self._node_cache = NodeCache(buffer_pages, self.pagefile.stats)

    @property
    def node_cache(self) -> NodeCache:
        """The node cache (hit/miss counters live here too)."""
        return self._node_cache

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def codec(self):
        """Node codec (object or feature flavour)."""

    @abstractmethod
    def parent_entry(self, child: Node):
        """Internal entry summarizing ``child`` (MBR + aggregates)."""

    @abstractmethod
    def entry_rect(self, entry) -> Rect:
        """Spatial MBR of any entry (degenerate rect for leaf entries)."""

    @abstractmethod
    def metadata(self) -> dict:
        """Tree-specific metadata persisted on the meta page."""

    # ------------------------------------------------------------------
    # page plumbing
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IOStats:
        """I/O statistics of the underlying page file."""
        return self.pagefile.stats

    def read_node(self, page_id: int) -> Node:
        """Fetch and decode a node (one logical I/O).

        Callers that mutate the returned node's entries must follow up
        with :meth:`write_node` (all internal callers do); the cached
        object is shared.
        """
        cached = self._node_cache.get(page_id)
        if cached is not None:
            # A node-cache hit serves one logical read from memory, so it
            # also counts as a buffer hit for the I/O accounting.
            self.pagefile.stats.record_hit()
            return cached
        # Node-cache misses are the real node expansions: the page is
        # fetched and decoded.  Trace them as spans so the timeline shows
        # where traversals leave the node cache.
        t0 = time.perf_counter() if _tracing.enabled else None
        node = self.codec.decode(page_id, self.pagefile.read(page_id).payload)
        if t0 is not None:
            _tracing.add_complete(
                "rtree.node_expand",
                t0,
                time.perf_counter(),
                cat="index",
                args={
                    "page_id": page_id,
                    "tree": type(self).__name__,
                    "level": node.level,
                },
            )
        self._node_cache.put(node)
        return node

    def write_node(self, node: Node) -> None:
        """Encode and persist a node.

        The node cache is explicitly invalidated for the page and then
        refreshed with the node object just written — now carrying the
        payload just encoded — so a stale image can never be served after
        a mutation; the node's leaf arrays are dropped because they view
        the previous payload.
        """
        payload = self.codec.encode(node)
        self.pagefile.write(Page(node.page_id, payload))
        node.payload = payload
        node.invalidate_arrays()
        self._node_cache.invalidate(node.page_id)
        self._node_cache.put(node)

    def clear_cache(self) -> dict[str, int]:
        """Drop all cached nodes (cold-cache runs).

        Returns ``{"nodes": ...}`` — how many were dropped.
        """
        return {"nodes": self._node_cache.clear()}

    def _new_node(self, level: int, entries: list) -> Node:
        node = Node(self.pagefile.allocate(), level, entries)
        self.write_node(node)
        return node

    def root_node(self) -> Node:
        """The root node; raises on an empty tree."""
        if self.root_id is None:
            raise IndexError_("tree is empty")
        return self.read_node(self.root_id)

    @property
    def payload_capacity(self) -> int:
        return Page.capacity(self.pagefile.page_size)

    @property
    def leaf_fanout(self) -> int:
        return self.codec.leaf_fanout(self.payload_capacity)

    @property
    def internal_fanout(self) -> int:
        return self.codec.internal_fanout(self.payload_capacity)

    # ------------------------------------------------------------------
    # metadata page
    # ------------------------------------------------------------------
    def _write_meta(self) -> None:
        if self._meta_page_id is None:
            self._meta_page_id = self.pagefile.allocate()
        meta = dict(self.metadata())
        meta.update(
            root=self.root_id, height=self.height, count=self.count,
            layout=LEAF_LAYOUT,
        )
        payload = json.dumps(meta).encode()
        self.pagefile.write(Page(self._meta_page_id, payload))

    @staticmethod
    def read_meta(pagefile: PageFile) -> dict:
        """Read the metadata page of a persisted tree.

        A tree written before the meta page recorded a leaf layout stores
        its leaves as rows, which this code would misread as columns.
        """
        meta = json.loads(pagefile.read(META_PAGE_ID).payload.decode())
        layout = meta.get("layout", 1)
        if layout != LEAF_LAYOUT:
            raise StorageError(
                f"tree was written with leaf layout {layout}; rebuild "
                f"(this version reads layout {LEAF_LAYOUT} only)"
            )
        return meta

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, leaf_entries: Sequence, fill: float = DEFAULT_FILL) -> None:
        """Pack pre-sorted leaf entries bottom-up into a full tree.

        ``fill`` is the target node occupancy (the classic packed R-tree
        uses 1.0; slightly lower leaves headroom for later inserts).
        """
        if self.root_id is not None:
            raise IndexError_("tree already built")
        if not 0.1 < fill <= 1.0:
            raise IndexError_(f"fill factor {fill} outside (0.1, 1.0]")
        self._write_meta()
        entries = list(leaf_entries)
        self.count = len(entries)
        if not entries:
            root = self._new_node(LEAF_LEVEL, [])
            self.root_id = root.page_id
            self.height = 1
            self._write_meta()
            return

        per_leaf = max(2, int(self.leaf_fanout * fill))
        nodes = [
            self._new_node(LEAF_LEVEL, entries[i : i + per_leaf])
            for i in range(0, len(entries), per_leaf)
        ]
        level = LEAF_LEVEL
        per_internal = max(2, int(self.internal_fanout * fill))
        while len(nodes) > 1:
            level += 1
            parents = []
            for i in range(0, len(nodes), per_internal):
                group = nodes[i : i + per_internal]
                parent_entries = [self.parent_entry(child) for child in group]
                parents.append(self._new_node(level, parent_entries))
            nodes = parents
        self.root_id = nodes[0].page_id
        self.height = level + 1
        self._write_meta()

    # ------------------------------------------------------------------
    # insertion (Guttman, quadratic split)
    # ------------------------------------------------------------------
    def insert(self, leaf_entry) -> None:
        """Insert one leaf entry, splitting nodes as needed."""
        if self.root_id is None:
            self._write_meta()
            root = self._new_node(LEAF_LEVEL, [leaf_entry])
            self.root_id = root.page_id
            self.height = 1
            self.count = 1
            self._write_meta()
            return

        path = self._choose_path(leaf_entry)
        leaf = path[-1]
        leaf.entries.append(leaf_entry)
        self.count += 1

        split: Node | None = None
        if len(leaf.entries) > self.leaf_fanout:
            split = self._split(leaf)
        else:
            self.write_node(leaf)

        # Propagate entry updates (and splits) toward the root.
        for depth in range(len(path) - 2, -1, -1):
            parent = path[depth]
            child = path[depth + 1]
            self._replace_child_entry(parent, child)
            if split is not None:
                parent.entries.append(self.parent_entry(split))
                split = None
            if len(parent.entries) > self.internal_fanout:
                split = self._split(parent)
            else:
                self.write_node(parent)

        if split is not None:
            old_root = path[0]
            new_root = self._new_node(
                old_root.level + 1,
                [self.parent_entry(old_root), self.parent_entry(split)],
            )
            self.root_id = new_root.page_id
            self.height += 1
        self._write_meta()

    def _choose_path(self, leaf_entry) -> list[Node]:
        """Root-to-leaf path choosing minimum-enlargement subtrees."""
        target = self.entry_rect(leaf_entry)
        path = [self.root_node()]
        while not path[-1].is_leaf:
            node = path[-1]
            best = min(
                node.entries,
                key=lambda e: (
                    self._choose_cost(e, target),
                    e.rect.area(),
                ),
            )
            path.append(self.read_node(best.child))
        return path

    def _choose_cost(self, internal_entry, target: Rect) -> float:
        """Subtree-choice cost; subclasses may fold in textual distance."""
        return internal_entry.rect.enlargement(target)

    def _replace_child_entry(self, parent: Node, child: Node) -> None:
        for i, entry in enumerate(parent.entries):
            if entry.child == child.page_id:
                parent.entries[i] = self.parent_entry(child)
                return
        raise IndexError_(
            f"node {parent.page_id} has no entry for child {child.page_id}"
        )

    def _split(self, node: Node) -> Node:
        """Quadratic split in place; returns the newly created sibling."""
        entries = node.entries
        rects = [self.entry_rect(e) for e in entries]
        seed_a, seed_b = _pick_seeds(rects)
        group_a, group_b = [seed_a], [seed_b]
        rect_a, rect_b = rects[seed_a], rects[seed_b]
        fanout = self.leaf_fanout if node.is_leaf else self.internal_fanout
        min_fill = max(1, int(fanout * MIN_FILL_RATIO))
        remaining = [i for i in range(len(entries)) if i not in (seed_a, seed_b)]

        while remaining:
            if len(group_a) + len(remaining) == min_fill:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == min_fill:
                group_b.extend(remaining)
                break
            pick, prefer_a = _pick_next(remaining, rects, rect_a, rect_b)
            remaining.remove(pick)
            if prefer_a:
                group_a.append(pick)
                rect_a = rect_a.union(rects[pick])
            else:
                group_b.append(pick)
                rect_b = rect_b.union(rects[pick])

        sibling_entries = [entries[i] for i in group_b]
        node.entries = [entries[i] for i in group_a]
        self.write_node(node)
        sibling = self._new_node(node.level, sibling_entries)
        return sibling

    # ------------------------------------------------------------------
    # deletion (Guttman CondenseTree)
    # ------------------------------------------------------------------
    def delete(self, leaf_entry) -> bool:
        """Remove one leaf entry; returns False when not found.

        Under-full nodes along the path are dissolved and their leaf
        entries reinserted (CondenseTree); the root collapses when left
        with a single child.
        """
        if self.root_id is None:
            return False
        path = self._find_leaf_path(leaf_entry)
        if path is None:
            return False
        leaf = path[-1]
        leaf.entries.remove(leaf_entry)
        self.count -= 1

        orphans: list = []
        # Walk upward, dissolving under-full nodes.
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            fanout = self.leaf_fanout if node.is_leaf else self.internal_fanout
            min_fill = max(1, int(fanout * MIN_FILL_RATIO))
            if len(node.entries) < min_fill:
                parent.entries = [
                    e for e in parent.entries if e.child != node.page_id
                ]
                orphans.extend(self._collect_leaf_entries(node))
                # The subtree is unlinked without a final write (the
                # dissolved node may already differ in memory from its
                # page, e.g. the leaf that lost the deleted entry), so
                # its decoded nodes must leave the cache: a later
                # allocate() may hand the page ids out again, and the
                # cache would serve the dissolved image for them.
                self._invalidate_subtree(node)
            else:
                self.write_node(node)
                self._replace_child_entry(parent, node)

        root = path[0]
        self.write_node(root)
        # Collapse a root with a single internal child.
        while not root.is_leaf and len(root.entries) == 1:
            root = self.read_node(root.entries[0].child)
            self.root_id = root.page_id
            self.height -= 1
        if not root.is_leaf and not root.entries:
            # Everything dissolved into orphans: restart from empty.
            empty = self._new_node(LEAF_LEVEL, [])
            self.root_id = empty.page_id
            self.height = 1

        if orphans:
            # insert() re-counts the orphans and rewrites the meta page
            # after each one, so the final meta carries the settled
            # root/height/count — no separate write here (a second
            # _write_meta before the reinserts would persist a count that
            # still includes the orphans).
            self.count -= len(orphans)
            for entry in orphans:
                self.insert(entry)
        else:
            self._write_meta()
        return True

    def _find_leaf_path(self, leaf_entry) -> list[Node] | None:
        """Root-to-leaf path to a node containing ``leaf_entry``."""
        target = self.entry_rect(leaf_entry)

        def descend(node: Node, path: list[Node]) -> list[Node] | None:
            path.append(node)
            if node.is_leaf:
                if leaf_entry in node.entries:
                    return path
            else:
                for entry in node.entries:
                    if entry.rect.contains_rect(target):
                        found = descend(self.read_node(entry.child), path)
                        if found is not None:
                            return found
            path.pop()
            return None

        return descend(self.root_node(), [])

    def _collect_leaf_entries(self, node: Node) -> list:
        """All leaf entries in a subtree (for orphan reinsertion)."""
        if node.is_leaf:
            return list(node.entries)
        collected: list = []
        for entry in node.entries:
            collected.extend(
                self._collect_leaf_entries(self.read_node(entry.child))
            )
        return collected

    def _invalidate_subtree(self, node: Node) -> None:
        """Evict a dissolved subtree's decoded nodes from the cache."""
        if not node.is_leaf:
            for entry in node.entries:
                self._invalidate_subtree(self.read_node(entry.child))
        self._node_cache.invalidate(node.page_id)

    # ------------------------------------------------------------------
    # introspection / validation
    # ------------------------------------------------------------------
    def iter_leaves(self) -> Iterable[Node]:
        """All leaf nodes, in the same order ``iter_leaf_entries`` uses."""
        if self.root_id is None:
            return
        stack = [self.root_id]
        while stack:
            node = self.read_node(stack.pop())
            if node.is_leaf:
                yield node
            else:
                stack.extend(e.child for e in node.entries)

    def iter_leaf_entries(self) -> Iterable:
        """Full scan of all leaf entries (sequential reads)."""
        for node in self.iter_leaves():
            yield from node.entries

    def validate(self) -> None:
        """Check structural invariants; raises :class:`IndexError_`.

        Verified: parent MBRs contain child MBRs, aggregates match a
        recomputation from the child, levels decrease by one, leaf count
        equals ``self.count``.
        """
        if self.root_id is None:
            return
        seen = 0
        stack = [(self.root_id, self.height - 1)]
        while stack:
            page_id, level = stack.pop()
            node = self.read_node(page_id)
            if node.level != level:
                raise IndexError_(
                    f"node {page_id}: level {node.level}, expected {level}"
                )
            if node.is_leaf:
                seen += len(node.entries)
                continue
            for entry in node.entries:
                child = self.read_node(entry.child)
                expected = self.parent_entry(child)
                if expected != entry:
                    raise IndexError_(
                        f"node {page_id}: stale entry for child {entry.child}"
                    )
                stack.append((entry.child, level - 1))
        if seen != self.count:
            raise IndexError_(f"leaf scan found {seen} entries, count={self.count}")


def _pick_seeds(rects: list[Rect]) -> tuple[int, int]:
    """Guttman PickSeeds: the pair wasting the most area together."""
    worst = -1.0
    pair = (0, 1)
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            waste = (
                rects[i].union(rects[j]).area()
                - rects[i].area()
                - rects[j].area()
            )
            if waste > worst:
                worst = waste
                pair = (i, j)
    return pair


def _pick_next(
    remaining: list[int], rects: list[Rect], rect_a: Rect, rect_b: Rect
) -> tuple[int, bool]:
    """Guttman PickNext: strongest preference first; returns (index, to_a)."""
    best_pick = remaining[0]
    best_diff = -1.0
    best_prefer_a = True
    for i in remaining:
        cost_a = rect_a.enlargement(rects[i])
        cost_b = rect_b.enlargement(rects[i])
        diff = abs(cost_a - cost_b)
        if diff > best_diff:
            best_diff = diff
            best_pick = i
            best_prefer_a = cost_a < cost_b
    return best_pick, best_prefer_a
