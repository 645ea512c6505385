"""The data-object R-tree (``rtree`` in the paper, Section 4.1).

Indexes the data objects ``O`` by location only.  Besides the classic
range search it provides the three retrieval primitives the STPS variants
need (Sections 6.4, 7.1, 7.2):

* :meth:`within_all` — objects within distance ``r`` of *every* anchor
  point of a feature combination (range-score ``getDataObjects``);
* :meth:`best_first` — generic decreasing-upper-bound top-k search, used
  with the influence score;
* :meth:`in_polygon` — objects inside a convex region, used with the
  Voronoi-cell intersection of the nearest-neighbor variant.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.leafdata import object_leaf_arrays
from repro.index.nodes import Node, ObjectLeafEntry, ObjectNodeCodec
from repro.index.rtree_base import DEFAULT_FILL, RTreeBase, spatial_sort_keys
from repro.model.objects import DataObject
from repro.storage.node_cache import DEFAULT_BUFFER_PAGES
from repro.storage.pagefile import PageFile


class ObjectRTree(RTreeBase):
    """R-tree over data objects (points at any finite location; the
    Hilbert bulk-load key clamps coordinates to the unit square, which
    changes packing quality outside it, never what a search finds)."""

    def __init__(
        self,
        pagefile: PageFile | None = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ) -> None:
        super().__init__(pagefile, buffer_pages)
        self._codec = ObjectNodeCodec()

    @property
    def codec(self) -> ObjectNodeCodec:
        return self._codec

    def metadata(self) -> dict:
        return {"kind": "object", "page_size": self.pagefile.page_size}

    def parent_entry(self, child: Node):
        from repro.index.nodes import ObjectInternalEntry

        return ObjectInternalEntry(child.page_id, child.mbr())

    def entry_rect(self, entry) -> Rect:
        return entry.rect

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        objects: Iterable[DataObject],
        pagefile: PageFile | None = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        method: str = "hilbert",
        fill: float = DEFAULT_FILL,
    ) -> "ObjectRTree":
        """Build a tree from data objects.

        ``method`` is ``"hilbert"`` (bulk load in Hilbert order, default),
        ``"str"`` (sort-tile-recursive) or ``"insert"`` (one-by-one).
        """
        tree = cls(pagefile, buffer_pages)
        entries = [ObjectLeafEntry(o.oid, o.x, o.y) for o in objects]
        if method == "hilbert":
            order = np.argsort(spatial_sort_keys(entries), kind="stable")
            tree.bulk_load([entries[i] for i in order.tolist()], fill)
        elif method == "str":
            tree.bulk_load(_str_order(entries, tree.leaf_fanout, fill), fill)
        elif method == "insert":
            for entry in entries:
                tree.insert(entry)
        else:
            raise ValueError(f"unknown build method {method!r}")
        return tree

    # ------------------------------------------------------------------
    # searches
    # ------------------------------------------------------------------
    def range_search(
        self, center: Sequence[float], radius: float
    ) -> Iterator[ObjectLeafEntry]:
        """All objects within Euclidean ``radius`` of ``center``."""
        yield from self.within_all([tuple(center)], radius)

    def within_all(
        self, anchors: Sequence[tuple[float, float]], radius: float
    ) -> Iterator[ObjectLeafEntry]:
        """Objects within ``radius`` of every anchor point.

        With an empty anchor list every object qualifies (the all-virtual
        combination of Section 6.1).
        """
        if self.root_id is None:
            return
        r2 = radius * radius
        stack = [self.root_id]
        while stack:
            node = self.read_node(stack.pop())
            if node.is_leaf:
                # One distance test per anchor for the whole leaf (see
                # repro.index.leafdata); entries are built for the
                # qualifying rows only.
                arrays = object_leaf_arrays(node)
                keep = None
                for ax, ay in anchors:
                    dx = arrays.xs - ax
                    dy = arrays.ys - ay
                    near = dx * dx + dy * dy <= r2
                    keep = near if keep is None else keep & near
                columns = (arrays.oids, arrays.xs, arrays.ys)
                if keep is not None:
                    columns = [column[keep] for column in columns]
                yield from map(
                    ObjectLeafEntry, *(column.tolist() for column in columns)
                )
            else:
                for e in node.entries:
                    if all(e.rect.mindist(a) <= radius for a in anchors):
                        stack.append(e.child)

    def in_polygon(self, polygon: ConvexPolygon) -> Iterator[ObjectLeafEntry]:
        """Objects inside a convex polygon (bbox pruning + exact test)."""
        if self.root_id is None or polygon.is_empty:
            return
        bbox = polygon.bounding_rect()
        stack = [self.root_id]
        while stack:
            node = self.read_node(stack.pop())
            if node.is_leaf:
                for e in node.entries:
                    if bbox.contains_point((e.x, e.y)) and polygon.contains(
                        (e.x, e.y)
                    ):
                        yield e
            else:
                for e in node.entries:
                    if e.rect.intersects(bbox):
                        stack.append(e.child)

    def best_first(
        self,
        node_bound: Callable[[Rect], float],
        point_score: Callable[[float, float], float],
        limit: int,
        floor: float = float("-inf"),
        skip: Callable[[int], bool] | None = None,
        ties: bool = False,
    ) -> list[tuple[float, ObjectLeafEntry]]:
        """Top-``limit`` objects by a decreasing-bound score function.

        ``node_bound(rect)`` must upper-bound ``point_score(x, y)`` for
        every point in ``rect``.  Stops early once the best remaining bound
        falls to ``floor`` or below.  ``skip`` filters object ids (used to
        ignore already-collected objects).  With ``ties`` the search keeps
        draining entries that *tie* the ``limit``-th best score (so the
        caller can apply a deterministic tie-break over the full tie set);
        without it, tied objects past ``limit`` are cut in heap order.
        """
        if self.root_id is None or limit <= 0:
            return []
        results: list[tuple[float, ObjectLeafEntry]] = []
        counter = 0
        root = self.root_node()
        heap: list[tuple[float, int, object]] = []

        def push_node(node: Node) -> None:
            nonlocal counter
            for e in node.entries:
                if node.is_leaf:
                    if skip is not None and skip(e.oid):
                        continue
                    score = point_score(e.x, e.y)
                else:
                    score = node_bound(e.rect)
                if score > floor:
                    counter += 1
                    heapq.heappush(heap, (-score, counter, e))

        push_node(root)
        while heap:
            if len(results) >= limit and (
                not ties or -heap[0][0] < results[limit - 1][0]
            ):
                break
            neg_score, _, entry = heapq.heappop(heap)
            if -neg_score <= floor:
                break
            if isinstance(entry, ObjectLeafEntry):
                results.append((-neg_score, entry))
            else:
                push_node(self.read_node(entry.child))
        return results

    def all_entries(self) -> Iterator[ObjectLeafEntry]:
        """Sequential scan of every data object, as entries."""
        yield from self.iter_leaf_entries()

    def scan(self) -> list[tuple[int, float, float]]:
        """Every data object as an ``(oid, x, y)`` tuple, in leaf order.

        What a read path that needs all objects uses (the STDS scan, the
        STPS score-0 tail): the leaf columns are read in bulk (``tolist``
        beats building an entry per object), in :meth:`all_entries`' order.
        """
        out: list[tuple[int, float, float]] = []
        for node in self.iter_leaves():
            arrays = object_leaf_arrays(node)
            out.extend(
                zip(arrays.oids.tolist(), arrays.xs.tolist(), arrays.ys.tolist())
            )
        return out


def _str_order(
    entries: list[ObjectLeafEntry], leaf_fanout: int, fill: float
) -> list[ObjectLeafEntry]:
    """Sort-Tile-Recursive ordering for 2-d points."""
    import math

    if not entries:
        return entries
    per_leaf = max(2, int(leaf_fanout * fill))
    leaf_count = math.ceil(len(entries) / per_leaf)
    slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
    per_slice = per_leaf * math.ceil(leaf_count / slice_count)
    by_x = sorted(entries, key=lambda e: (e.x, e.y))
    ordered: list[ObjectLeafEntry] = []
    for i in range(0, len(by_x), per_slice):
        chunk = sorted(by_x[i : i + per_slice], key=lambda e: (e.y, e.x))
        ordered.extend(chunk)
    return ordered
