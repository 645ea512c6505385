"""n-dimensional Hilbert curve encode/decode (Skilling's algorithm).

Implements the transpose-based algorithm of J. Skilling, *Programming the
Hilbert curve* (AIP Conf. Proc. 707, 2004) for arbitrary dimension count
``n`` and bits-per-dimension ``b``.  Two users in this repo:

* the keyword mapping of Section 4.2 (``b = 1``, ``n = w`` vocabulary
  terms), where the curve degenerates to a Gray-code ordering of the
  keyword hypercube — consecutive Hilbert values differ in exactly one
  keyword, which is the locality property the SRT-index exploits;
* the bulk-loading keys: the SRT-index's 4-d key over the mapped space
  ``(x, y, score, H(keywords))`` and the 2-d spatial key of the object
  tree and the IR²-tree.

:meth:`HilbertCurve.encode` / :meth:`HilbertCurve.decode` take and
return plain Python ints, so ``n * b`` can exceed machine-word width
(needed for 256-keyword vocabularies → 256-bit Hilbert values); they are
the reference.  The bulk loads call :meth:`HilbertCurve.encode_unit`
instead: the same algorithm over whole ``uint64`` columns of unit-cube
points (``n * b <= 64``), one call per tree build.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError


@dataclass(frozen=True, slots=True)
class HilbertCurve:
    """A Hilbert curve over ``[0, 2**bits)**dims``."""

    dims: int
    bits: int

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise GeometryError(f"need at least 1 dimension, got {self.dims}")
        if self.bits < 1:
            raise GeometryError(f"need at least 1 bit, got {self.bits}")

    @property
    def max_h(self) -> int:
        """Exclusive upper bound of Hilbert values."""
        return 1 << (self.dims * self.bits)

    @property
    def side(self) -> int:
        """Exclusive upper bound of each coordinate."""
        return 1 << self.bits

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def encode(self, coords: Sequence[int]) -> int:
        """Hilbert index of an integer point."""
        x = self._validated(coords)
        m = 1 << (self.bits - 1)

        # Inverse undo of the excess work (Skilling's first loop).
        q = m
        while q > 1:
            p = q - 1
            for i in range(self.dims):
                if x[i] & q:
                    x[0] ^= p
                else:
                    t = (x[0] ^ x[i]) & p
                    x[0] ^= t
                    x[i] ^= t
            q >>= 1

        # Gray encode.
        for i in range(1, self.dims):
            x[i] ^= x[i - 1]
        t = 0
        q = m
        while q > 1:
            if x[self.dims - 1] & q:
                t ^= q - 1
            q >>= 1
        for i in range(self.dims):
            x[i] ^= t

        return self._interleave(x)

    def decode(self, h: int) -> tuple[int, ...]:
        """Integer point at Hilbert index ``h`` (inverse of :meth:`encode`)."""
        if not 0 <= h < self.max_h:
            raise GeometryError(
                f"hilbert value {h} out of range [0, {self.max_h})"
            )
        x = self._deinterleave(h)
        m = 1 << (self.bits - 1)

        # Gray decode by halving.
        t = x[self.dims - 1] >> 1
        for i in range(self.dims - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t

        # Undo the excess work.
        q = 2
        while q != (m << 1):
            p = q - 1
            for i in range(self.dims - 1, -1, -1):
                if x[i] & q:
                    x[0] ^= p
                else:
                    t = (x[0] ^ x[i]) & p
                    x[0] ^= t
                    x[i] ^= t
            q <<= 1

        return tuple(x)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _validated(self, coords: Sequence[int]) -> list[int]:
        if len(coords) != self.dims:
            raise GeometryError(
                f"expected {self.dims} coordinates, got {len(coords)}"
            )
        out = []
        for c in coords:
            c = int(c)
            if not 0 <= c < self.side:
                raise GeometryError(
                    f"coordinate {c} out of range [0, {self.side})"
                )
            out.append(c)
        return out

    def _interleave(self, x: Sequence[int]) -> int:
        """Pack the transpose form into a single integer, MSB-first."""
        h = 0
        for bit in range(self.bits - 1, -1, -1):
            for i in range(self.dims):
                h = (h << 1) | ((x[i] >> bit) & 1)
        return h

    def _deinterleave(self, h: int) -> list[int]:
        """Unpack a Hilbert integer into transpose form."""
        x = [0] * self.dims
        position = self.dims * self.bits - 1
        for bit in range(self.bits - 1, -1, -1):
            for i in range(self.dims):
                x[i] |= ((h >> position) & 1) << bit
                position -= 1
        return x


    # ------------------------------------------------------------------
    # bulk-load keys
    # ------------------------------------------------------------------
    def encode_unit(self, columns) -> np.ndarray:
        """Hilbert keys of points in ``[0, 1]**dims``, as ``uint64``.

        ``columns`` holds ``dims`` equal-length float columns (or is a
        ``(dims, n)`` array).  Each coordinate is quantized to
        ``int(c * 2**bits)`` and clamped to ``[0, 2**bits - 1]``, then the
        points go through :meth:`encode`'s algorithm run over whole
        columns — each ``if x[i] & q`` branch becomes a masked XOR — so
        key ``j`` equals ``encode`` of point ``j``.  Needs
        ``dims * bits <= 64``.
        """
        if self.dims * self.bits > 64:
            raise GeometryError(
                f"{self.dims} x {self.bits} bits do not fit a 64-bit key"
            )
        if len(columns) != self.dims:
            raise GeometryError(
                f"expected {self.dims} columns, got {len(columns)}"
            )
        side = float(self.side)
        x = []
        for column in columns:
            c = np.asarray(column, dtype=np.float64)
            if not np.isfinite(c).all():
                raise GeometryError("coordinates must be finite")
            with np.errstate(over="ignore"):
                scaled = np.trunc(c * side)
            # Clamped as floats first: 2**64 - 1 has no float64.
            over = scaled >= side
            q = np.where(over, 0.0, np.maximum(scaled, 0.0)).astype(np.uint64)
            q[over] = self.side - 1
            x.append(q)

        # Inverse undo of the excess work (Skilling's first loop).
        q = 1 << (self.bits - 1)
        while q > 1:
            p = np.uint64(q - 1)
            for i in range(self.dims):
                hit = (x[i] & np.uint64(q)) != 0
                t = np.where(hit, np.uint64(0), (x[0] ^ x[i]) & p)
                x[0] ^= np.where(hit, p, t)
                x[i] ^= t
            q >>= 1

        # Gray encode.
        for i in range(1, self.dims):
            x[i] ^= x[i - 1]
        t = np.zeros_like(x[-1])
        q = 1 << (self.bits - 1)
        while q > 1:
            t ^= np.where(x[-1] & np.uint64(q), np.uint64(q - 1), np.uint64(0))
            q >>= 1
        for i in range(self.dims):
            x[i] ^= t

        # Pack MSB-first, as :meth:`_interleave` does.
        h = np.zeros_like(t)
        one = np.uint64(1)
        for bit in range(self.bits - 1, -1, -1):
            for i in range(self.dims):
                h = (h << one) | ((x[i] >> np.uint64(bit)) & one)
        return h
