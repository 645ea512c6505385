"""Axis-aligned rectangles (minimum bounding rectangles).

``Rect`` is the MBR type used by every R-tree flavour in the repo.  It is
dimension-generic: the object R-tree and the IR²-tree use 2-d rectangles
while the SRT-index sorts points in a mapped 4-d space (Section 4.2 of the
paper) and keeps 2-d spatial MBRs alongside its aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geometry.point import Coords


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle given by its low and high corner points."""

    low: Coords
    high: Coords

    def __post_init__(self) -> None:
        if len(self.low) != len(self.high):
            raise GeometryError(
                f"corner dimensionality mismatch: {self.low!r} vs {self.high!r}"
            )
        if not self.low:
            raise GeometryError("a rectangle needs at least one dimension")
        if any(lo > hi for lo, hi in zip(self.low, self.high)):
            raise GeometryError(f"inverted rectangle: {self.low!r} > {self.high!r}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """Degenerate rectangle covering a single point."""
        coords = tuple(float(c) for c in point)
        return cls(coords, coords)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Smallest rectangle enclosing all input rectangles."""
        rects = list(rects)
        if not rects:
            raise GeometryError("union of zero rectangles is undefined")
        dim = len(rects[0].low)
        low = tuple(min(r.low[d] for r in rects) for d in range(dim))
        high = tuple(max(r.high[d] for r in rects) for d in range(dim))
        return cls(low, high)

    @classmethod
    def bounding(cls, points: Iterable[Sequence[float]]) -> "Rect":
        """Smallest rectangle enclosing all input points."""
        pts = [tuple(float(c) for c in p) for p in points]
        if not pts:
            raise GeometryError("bounding box of zero points is undefined")
        dim = len(pts[0])
        low = tuple(min(p[d] for p in pts) for d in range(dim))
        high = tuple(max(p[d] for p in pts) for d in range(dim))
        return cls(low, high)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self.low)

    @property
    def center(self) -> Coords:
        """Geometric center of the rectangle."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.low, self.high))

    def extent(self, d: int) -> float:
        """Side length along dimension ``d``."""
        return self.high[d] - self.low[d]

    def area(self) -> float:
        """Hyper-volume (product of all side lengths)."""
        result = 1.0
        for lo, hi in zip(self.low, self.high):
            result *= hi - lo
        return result

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree 'margin' metric)."""
        return sum(hi - lo for lo, hi in zip(self.low, self.high))

    # ------------------------------------------------------------------
    # set relations
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside (or on the border of) the rect."""
        self._check_dim(len(point))
        return all(
            lo <= c <= hi for lo, c, hi in zip(self.low, point, self.high)
        )

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` is fully inside this rectangle."""
        self._check_dim(other.dim)
        return all(
            slo <= olo and ohi <= shi
            for slo, shi, olo, ohi in zip(self.low, self.high, other.low, other.high)
        )

    def intersects(self, other: "Rect") -> bool:
        """True when the two rectangles share at least a boundary point."""
        self._check_dim(other.dim)
        return all(
            slo <= ohi and olo <= shi
            for slo, shi, olo, ohi in zip(self.low, self.high, other.low, other.high)
        )

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle enclosing both rectangles."""
        self._check_dim(other.dim)
        low = tuple(min(a, b) for a, b in zip(self.low, other.low))
        high = tuple(max(a, b) for a, b in zip(self.high, other.high))
        return Rect(low, high)

    def union_point(self, point: Sequence[float]) -> "Rect":
        """Smallest rectangle enclosing this rectangle and ``point``."""
        self._check_dim(len(point))
        low = tuple(min(a, float(b)) for a, b in zip(self.low, point))
        high = tuple(max(a, float(b)) for a, b in zip(self.high, point))
        return Rect(low, high)

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to absorb ``other`` (R-tree choose-subtree).

        ``self.union(other).area() - self.area()``, bit for bit, without
        building the union."""
        self._check_dim(other.dim)
        grown = 1.0
        area = 1.0
        for slo, shi, olo, ohi in zip(self.low, self.high, other.low, other.high):
            grown *= max(shi, ohi) - min(slo, olo)
            area *= shi - slo
        return grown - area

    def intersection_area(self, other: "Rect") -> float:
        """Hyper-volume of the overlap region (0.0 when disjoint)."""
        self._check_dim(other.dim)
        result = 1.0
        for slo, shi, olo, ohi in zip(self.low, self.high, other.low, other.high):
            side = min(shi, ohi) - max(slo, olo)
            if side <= 0.0:
                return 0.0
            result *= side
        return result

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def mindist(self, point: Sequence[float]) -> float:
        """Minimum Euclidean distance from ``point`` to the rectangle.

        Zero when the point is inside.  This is the classic R-tree MINDIST
        used as the pruning bound in Algorithms 2 and 4 of the paper.
        """
        self._check_dim(len(point))
        total = 0.0
        for lo, c, hi in zip(self.low, point, self.high):
            if c < lo:
                total += (lo - c) ** 2
            elif c > hi:
                total += (c - hi) ** 2
        return math.sqrt(total)

    def maxdist(self, point: Sequence[float]) -> float:
        """Maximum Euclidean distance from ``point`` to the rectangle."""
        self._check_dim(len(point))
        total = 0.0
        for lo, c, hi in zip(self.low, point, self.high):
            total += max(abs(c - lo), abs(c - hi)) ** 2
        return math.sqrt(total)

    def mindist_rect(self, other: "Rect") -> float:
        """Minimum Euclidean distance between two rectangles."""
        self._check_dim(other.dim)
        total = 0.0
        for slo, shi, olo, ohi in zip(self.low, self.high, other.low, other.high):
            if ohi < slo:
                total += (slo - ohi) ** 2
            elif olo > shi:
                total += (olo - shi) ** 2
        return math.sqrt(total)

    def _check_dim(self, other_dim: int) -> None:
        if other_dim != self.dim:
            raise GeometryError(
                f"dimension mismatch: {self.dim}-d rect vs {other_dim}-d argument"
            )


def mbr_of_points(points: Iterable[Sequence[float]]) -> Rect:
    """Convenience alias for :meth:`Rect.bounding`."""
    return Rect.bounding(points)
