"""A fixed kernel that gauges the machine's speed while a window runs.

The reference box is a shared two-CPU virtual machine whose speed
changes by itself, in phases that last from ten seconds to minutes:
identical work in one process took between 0.22 s and 0.36 s depending
on the minute, and consecutive ten-second runs of one seed completed
between 14.5 and 22.8 operations a second.  No statistic inside a run
removes a phase longer than the run, so the untraced pass cuts every
window into slices, times this kernel between them and multiplies what
it measured in a slice by ``NOMINAL_S`` over the kernel seconds beside
that slice: times as they would read at the speed at which the kernel
takes ``NOMINAL_S``.  Over sixteen runs that took the spread of a median
STPS latency from 0.13 to 0.04 and of a throughput from 0.11 to 0.07.

The kernel is the interpreter doing what the query code does -- a heap
of tuples, attribute reads across a list of small objects too large for
the cache, numpy calls on hundred-element arrays -- because a slow phase
slows such code more than a tight arithmetic loop.  It calls nothing in
the program under test, so a change to the program leaves it alone.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

import numpy as np

#: Kernel seconds on the reference box in a fast phase.
NOMINAL_S = 0.020


class _Point:
    __slots__ = ("x", "score", "flags")

    def __init__(self, x: float, score: float, flags: int) -> None:
        self.x = x
        self.score = score
        self.flags = flags


class Calibration:
    """Builds the kernel's fixed inputs once; a call times one round."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._priorities = [rng.random() for _ in range(8_000)]
        self._points = [
            _Point(rng.random(), rng.random(), rng.getrandbits(20))
            for _ in range(100_000)
        ]
        self._visits = [rng.randrange(100_000) for _ in range(15_000)]
        vectors = np.random.default_rng(1).random((150, 120))
        self._vectors = list(vectors)
        for _ in range(3):
            self()

    @staticmethod
    def correction(before: float, after: float) -> float:
        """What to multiply a time by that was measured between two rounds."""
        return NOMINAL_S / ((before + after) / 2)

    def __call__(self) -> float:
        """Seconds one round of the kernel took."""
        # A collection would cost what the workload's heap costs to scan.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            heap: list = []
            for i, priority in enumerate(self._priorities):
                heapq.heappush(heap, (priority, i, None))
                if i % 3 == 0:
                    heapq.heappop(heap)
            total = 0.0
            points = self._points
            for i in self._visits:
                point = points[i]
                if point.flags & 5:
                    total += point.x * point.score
            for a in self._vectors:
                for b in self._vectors[:10]:
                    gap = np.maximum(a - b, 0.0)
                    total += gap[gap < 0.3].sum()
            return perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
