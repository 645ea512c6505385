"""Uniform spatial grid holding the pending set of a batched STDS scan.

The batched variant of Algorithm 2 ("Performance improvements",
Section 5) expands an index entry when *at least one* pending data object
is within range, and assigns scores to every in-range pending object when
a feature pops.  A uniform grid with cell size ``r`` answers both in
expected O(1) per candidate, and its bounding box answers "no pending
object can be near this rectangle" in O(1) outright.

The pending set only ever shrinks, so a "nothing near" answer is final
the moment it is given: :meth:`SpatialGrid.out_of_reach` lets the scan
take it when an entry is first seen instead of when it is popped (the
batched scan runs the same test inline against :attr:`SpatialGrid.bounds`).

The query methods are hand-inlined (no intermediate ``Rect``, no
generator machinery, flat candidate loops): they sit on the hottest STDS
path — one ``pop_within`` per popped feature, one ``any_near_rect`` per
index entry considered for expansion.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import chain

import numpy as np

from repro.errors import QueryError
from repro.geometry.rect import Rect

#: Cell ids are held as int64; ``|x| / cell_size`` must stay below this.
_CELL_LIMIT = 2.0**62


class SpatialGrid:
    """Hash grid of points in the plane, keyed by integer cells."""

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0.0:
            raise QueryError(f"cell size must be positive, got {cell_size}")
        self.cell_size = cell_size
        # All cell computations use the same floor(x * inv) mapping, so
        # insert/discard/query agree on the cell of every point.
        self._inv = 1.0 / cell_size
        self._cells: dict[tuple[int, int], dict[int, tuple[float, float]]] = {}
        self._count = 0
        # Conservative bounding box over every point ever inserted; it is
        # never shrunk on removal, so all live points always lie inside.
        self._minx = math.inf
        self._miny = math.inf
        self._maxx = -math.inf
        self._maxy = -math.inf

    def __len__(self) -> int:
        return self._count

    def bulk_insert(self, points: Mapping[int, tuple[float, float]]) -> None:
        """Add ``id -> (x, y)`` points (ids must be new to their cell).

        Cell ids and the bounding box come from one vectorised pass per
        axis: ``floor(x * inv)`` in float64 is the IEEE product and floor
        the scalar probes compute, and the int64 cast is exact inside
        ``_CELL_LIMIT`` (coordinates beyond it are refused, NaN included).
        """
        if not points:
            return
        coords = np.fromiter(
            chain.from_iterable(points.values()), np.float64, 2 * len(points)
        ).reshape(-1, 2)
        minx, miny = coords.min(axis=0).tolist()
        maxx, maxy = coords.max(axis=0).tolist()
        if not max(-minx, -miny, maxx, maxy) * self._inv < _CELL_LIMIT:
            raise QueryError(
                f"coordinates out of range for cell size {self.cell_size}"
            )
        cell_ids = np.floor(coords * self._inv).astype(np.int64)
        cells = self._cells
        for oid, cell, point in zip(
            points,
            zip(cell_ids[:, 0].tolist(), cell_ids[:, 1].tolist()),
            points.values(),
        ):
            bucket = cells.get(cell)
            if bucket is None:
                cells[cell] = {oid: point}
            elif oid in bucket:
                raise QueryError(f"object {oid} already in grid")
            else:
                bucket[oid] = point
        self._count += len(points)
        self._minx, self._miny = min(self._minx, minx), min(self._miny, miny)
        self._maxx, self._maxy = max(self._maxx, maxx), max(self._maxy, maxy)

    def discard(self, oid: int, x: float, y: float) -> bool:
        """Remove a point if present; returns whether it was there."""
        cell = (math.floor(x * self._inv), math.floor(y * self._inv))
        bucket = self._cells.get(cell)
        if bucket is None or oid not in bucket:
            return False
        del bucket[oid]
        if not bucket:
            del self._cells[cell]
        self._count -= 1
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _box_dist2(self, lx: float, ly: float, hx: float, hy: float) -> float:
        """Squared distance from a rectangle to the bounding box.

        Each term is the exact tests' per-point term evaluated at the
        box edge, and float subtraction, squaring and addition are
        monotone — so this never exceeds what those tests compute for
        any point in the grid, and a reject taken on it is exact.
        """
        dx = lx - self._maxx if lx > self._maxx else (
            self._minx - hx if self._minx > hx else 0.0
        )
        dy = ly - self._maxy if ly > self._maxy else (
            self._miny - hy if self._miny > hy else 0.0
        )
        return dx * dx + dy * dy

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """The bounding box ``(minx, miny, maxx, maxy)`` of every point
        ever inserted (infinite and inverted while empty)."""
        return self._minx, self._miny, self._maxx, self._maxy

    def out_of_reach(self, rect: Rect, radius: float) -> bool:
        """True when ``rect`` is farther than ``radius`` from the bounding
        box, hence from every point now or later in the grid — O(1)."""
        (lx, ly), (hx, hy) = rect.low, rect.high
        return self._box_dist2(lx, ly, hx, hy) > radius * radius

    def any_near_rect(self, rect: Rect, radius: float) -> bool:
        """True when at least one point is within ``radius`` of ``rect``."""
        if self._count == 0:
            return False
        (lx, ly), (hx, hy) = rect.low, rect.high
        r2 = radius * radius
        if self._box_dist2(lx, ly, hx, hy) > r2:
            return False
        # O(1) accept: the rectangle contains the (conservative) bounding
        # box, hence some live point at distance 0.  (The *undilated* rect:
        # dilating by ``radius`` in L∞ would over-approximate near corners.)
        if (
            lx <= self._minx
            and ly <= self._miny
            and self._maxx <= hx
            and self._maxy <= hy
        ):
            return True
        inv = self._inv
        floor = math.floor
        cx0 = floor((lx - radius) * inv)
        cx1 = floor((hx + radius) * inv)
        cy0 = floor((ly - radius) * inv)
        cy1 = floor((hy + radius) * inv)
        cells = self._cells
        # Large rects cover more cells than exist — walk the occupied
        # cells instead of the (mostly empty) cell range.
        if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) > len(cells):
            candidates = (
                bucket
                for (cx, cy), bucket in cells.items()
                if cx0 <= cx <= cx1 and cy0 <= cy <= cy1
            )
        else:
            candidates = (
                bucket
                for cx in range(cx0, cx1 + 1)
                for cy in range(cy0, cy1 + 1)
                if (bucket := cells.get((cx, cy)))
            )
        for bucket in candidates:
            for x, y in bucket.values():
                dx = lx - x if x < lx else (x - hx if x > hx else 0.0)
                dy = ly - y if y < ly else (y - hy if y > hy else 0.0)
                if dx * dx + dy * dy <= r2:
                    return True
        return False

    def pop_within(self, x: float, y: float, radius: float) -> list[int]:
        """Remove and return the ids of all points within ``radius``:
        one bucket pass finds and deletes the hits."""
        r2 = radius * radius
        out: list[int] = []
        if self._box_dist2(x, y, x, y) > r2:
            return out
        inv = self._inv
        floor = math.floor
        cx1 = floor((x + radius) * inv)
        cy0 = floor((y - radius) * inv)
        cy1 = floor((y + radius) * inv)
        cells = self._cells
        for cx in range(floor((x - radius) * inv), cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                cell = (cx, cy)
                bucket = cells.get(cell)
                if not bucket:
                    continue
                hits = None
                for oid, (px, py) in bucket.items():
                    dx = px - x
                    dy = py - y
                    if dx * dx + dy * dy <= r2:
                        if hits is None:
                            hits = [oid]
                        else:
                            hits.append(oid)
                if hits:
                    for oid in hits:
                        del bucket[oid]
                    if not bucket:
                        del cells[cell]
                    self._count -= len(hits)
                    out += hits
        return out
