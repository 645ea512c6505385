"""Hilbert-curve machinery: generic n-d curve and keyword mapping.

``HilbertCurve.encode`` / ``decode`` are the arbitrary-width reference
(plain Python ints); ``HilbertCurve.encode_unit`` is what the bulk loads
run — the same algorithm over whole ``uint64`` columns of unit-cube
points, held equal to the reference by the tests.
"""

from repro.hilbert.curve import HilbertCurve
from repro.hilbert.keywords import KeywordHilbert, gray_rank

__all__ = ["HilbertCurve", "KeywordHilbert", "gray_rank"]
