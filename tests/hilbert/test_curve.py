"""Tests for the generic n-dimensional Hilbert curve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.hilbert.curve import HilbertCurve


class TestSmallCurves:
    @pytest.mark.parametrize(
        "dims,bits", [(1, 4), (2, 1), (2, 4), (3, 1), (3, 2), (4, 2)]
    )
    def test_bijective(self, dims, bits):
        curve = HilbertCurve(dims, bits)
        seen = set()
        for h in range(curve.max_h):
            point = curve.decode(h)
            assert point not in seen
            seen.add(point)
            assert curve.encode(point) == h

    @pytest.mark.parametrize("dims,bits", [(2, 4), (3, 2), (4, 1), (3, 1)])
    def test_adjacency(self, dims, bits):
        """Consecutive Hilbert values differ by 1 in exactly one dim."""
        curve = HilbertCurve(dims, bits)
        prev = curve.decode(0)
        for h in range(1, curve.max_h):
            cur = curve.decode(h)
            diff = sum(abs(a - b) for a, b in zip(prev, cur))
            assert diff == 1, f"h={h}: {prev} -> {cur}"
            prev = cur

    def test_2d_order_4_known_start(self):
        """The curve starts at the origin."""
        curve = HilbertCurve(2, 4)
        assert curve.decode(0) == (0, 0)

    def test_1bit_3d_is_gray_path(self):
        """The keyword mapping case: a Hamiltonian path on the 3-cube."""
        curve = HilbertCurve(3, 1)
        seq = [curve.decode(h) for h in range(8)]
        assert len(set(seq)) == 8
        for a, b in zip(seq, seq[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1


class TestValidation:
    def test_bad_dims(self):
        with pytest.raises(GeometryError):
            HilbertCurve(0, 4)

    def test_bad_bits(self):
        with pytest.raises(GeometryError):
            HilbertCurve(2, 0)

    def test_wrong_coordinate_count(self):
        with pytest.raises(GeometryError):
            HilbertCurve(2, 4).encode([1])

    def test_coordinate_out_of_range(self):
        with pytest.raises(GeometryError):
            HilbertCurve(2, 2).encode([4, 0])

    def test_h_out_of_range(self):
        with pytest.raises(GeometryError):
            HilbertCurve(2, 2).decode(16)


class TestLargeCurves:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**16 - 1),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip_4d_16bit(self, coords):
        curve = HilbertCurve(4, 16)
        assert list(curve.decode(curve.encode(coords))) == coords

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=64, max_size=64)
    )
    @settings(max_examples=50)
    def test_roundtrip_64d_1bit(self, coords):
        """The keyword-hypercube case at realistic dimensionality."""
        curve = HilbertCurve(64, 1)
        assert list(curve.decode(curve.encode(coords))) == coords


def unit_keys(dims, bits, *points):
    """``encode_unit`` keys of ``points`` as Python ints."""
    columns = np.array(points, dtype=np.float64).reshape(-1, dims).T
    return HilbertCurve(dims, bits).encode_unit(columns).tolist()


class TestUnitKeys:
    def test_2d_key_locality(self):
        """Nearby points mostly share key prefixes (coarse check)."""
        a, b, c = unit_keys(2, 16, (0.1, 0.1), (0.1 + 1e-6, 0.1), (0.9, 0.9))
        assert abs(a - b) < abs(a - c)

    def test_clamping(self):
        low, high = unit_keys(2, 16, (-0.5, 1.5), (0.0, 1.0 - 1e-12))
        assert low == high

    def test_4d_key_range(self):
        (key,) = unit_keys(4, 8, (0.5, 0.5, 0.5, 0.5))
        assert 0 <= key < 1 << 32

    def test_4d_distinct_dimensions_matter(self):
        base, score, text = unit_keys(
            4, 8, (0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.9, 0.5),
            (0.5, 0.5, 0.5, 0.9),
        )
        assert score != base
        assert text != base


#: (dims, bits) with dims * bits <= 64: the build's 2 x 16 and 4 x 8, the
#: full-width 4 x 16, 1 x 64 and 64 x 1, and odd shapes between.
SHAPES = [(2, 16), (4, 8), (4, 16), (1, 64), (64, 1), (3, 21), (2, 32), (5, 7)]

#: Coordinates the quantization must get right: both ends of the unit
#: interval, the last float below 1, and values that clamp.
EDGES = [0.0, 1.0, math.nextafter(1.0, 0.0), -0.0, -1e-300, -0.5, 1.5, 3.0]


def quantized(c: float, bits: int) -> int:
    """The scalar quantization: ``int(c * 2**bits)`` clamped to the side."""
    side = 1 << bits
    return min(max(int(c * side), 0), side - 1)


class TestEncodeUnit:
    @given(
        st.sampled_from(SHAPES).flatmap(
            lambda shape: st.tuples(
                st.just(shape),
                st.lists(
                    st.lists(
                        st.one_of(
                            st.sampled_from(EDGES),
                            st.floats(-2.0, 2.0, allow_nan=False),
                            st.floats(0.0, 1.0),
                        ),
                        min_size=shape[0],
                        max_size=shape[0],
                    ),
                    max_size=12,
                ),
            )
        )
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_equals_scalar_encode(self, case):
        (dims, bits), points = case
        curve = HilbertCurve(dims, bits)
        want = [curve.encode([quantized(c, bits) for c in p]) for p in points]
        assert unit_keys(dims, bits, *points) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(GeometryError):
            unit_keys(2, 16, (0.5, 0.5), (0.5, bad))

    @pytest.mark.parametrize("dims,bits", [(2, 33), (4, 17), (65, 1)])
    def test_wider_than_64_bits_rejected(self, dims, bits):
        with pytest.raises(GeometryError):
            HilbertCurve(dims, bits).encode_unit(np.zeros((dims, 1)))

    def test_wrong_column_count(self):
        with pytest.raises(GeometryError):
            HilbertCurve(2, 16).encode_unit(np.zeros((3, 1)))

    def test_no_points(self):
        keys = HilbertCurve(4, 8).encode_unit(np.zeros((4, 0)))
        assert keys.dtype == np.uint64 and keys.shape == (0,)
