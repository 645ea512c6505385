"""Tests for the spatial grid holding batched STDS's pending set."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import SpatialGrid
from repro.errors import QueryError
from repro.geometry.rect import Rect

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestBasics:
    def test_insert_remove(self):
        g = SpatialGrid(0.1)
        g.bulk_insert({1: (0.5, 0.5)})
        assert len(g) == 1
        assert g.discard(1, 0.5, 0.5)
        assert len(g) == 0

    def test_duplicate_insert_rejected(self):
        g = SpatialGrid(0.1)
        g.bulk_insert({1: (0.5, 0.5)})
        with pytest.raises(QueryError):
            g.bulk_insert({1: (0.5, 0.5)})

    def test_discard_missing_is_false(self):
        g = SpatialGrid(0.1)
        assert not g.discard(1, 0.5, 0.5)
        assert len(g) == 0

    def test_bad_cell_size(self):
        with pytest.raises(QueryError):
            SpatialGrid(0.0)

    def test_negative_coordinates_supported(self):
        g = SpatialGrid(0.1)
        g.bulk_insert({1: (-0.05, -0.05)})
        assert g.pop_within(0.0, 0.0, 0.1) == [1]

    def test_coordinates_beyond_the_cell_range_rejected(self):
        # Cell ids are int64: a point 1e19 cells out (or NaN) is refused
        # rather than filed under a wrapped id no probe would look in.
        for bad in (1e18, -1e18, math.nan):
            with pytest.raises(QueryError):
                SpatialGrid(0.1).bulk_insert({1: (bad, 0.5)})


class TestQueries:
    def setup_method(self):
        rng = random.Random(8)
        self.points = {i: (rng.random(), rng.random()) for i in range(300)}
        self.grid = SpatialGrid(0.05)
        self.grid.bulk_insert(self.points)

    def _within(self, cx, cy, r):
        return sorted(
            i
            for i, (x, y) in self.points.items()
            if (x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r
        )

    def test_pop_within_matches_brute_force(self):
        # Disjoint discs, so each probe sees the untouched point set.
        for cx, cy, r in [(0.5, 0.5, 0.1), (0.05, 0.9, 0.2), (1.0, 1.0, 0.05)]:
            want = self._within(cx, cy, r)
            assert sorted(self.grid.pop_within(cx, cy, r)) == want
            assert self.grid.pop_within(cx, cy, r) == []  # they are gone
        assert len(self.grid) < len(self.points)

    def test_any_near_rect_matches_brute_force(self):
        rng = random.Random(9)
        for r in (0.005, 0.07, 0.4):
            for _ in range(40):
                x0, x1 = sorted((rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)))
                y0, y1 = sorted((rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)))
                rect = Rect((x0, y0), (x1, y1))
                want = any(
                    rect.mindist(p) <= r for p in self.points.values()
                )
                assert self.grid.any_near_rect(rect, r) == want
                if self.grid.out_of_reach(rect, r):
                    assert not want  # the O(1) reject is never wrong

    def test_any_near_rect(self):
        assert self.grid.any_near_rect(Rect((0.4, 0.4), (0.6, 0.6)), 0.01)
        empty_grid = SpatialGrid(0.05)
        assert not empty_grid.any_near_rect(Rect((0.0, 0.0), (1.0, 1.0)), 1.0)

    def test_rejects_hold_after_removals(self):
        # The bounding box is never shrunk: removing points can only make
        # the O(1) rejects conservative, never wrong.
        far = Rect((2.0, 2.0), (3.0, 3.0))
        assert self.grid.out_of_reach(far, 0.5)
        assert not self.grid.any_near_rect(far, 0.5)
        assert self.grid.pop_within(2.5, 2.5, 0.5) == []
        for oid, (x, y) in self.points.items():
            self.grid.discard(oid, x, y)
        assert len(self.grid) == 0
        assert not self.grid.any_near_rect(Rect((0.0, 0.0), (1.0, 1.0)), 1.0)

    @given(unit, unit, st.floats(min_value=0.001, max_value=0.3))
    @settings(max_examples=30)
    def test_pop_within_property(self, cx, cy, r):
        grid = SpatialGrid(0.05)
        grid.bulk_insert(self.points)
        assert sorted(grid.pop_within(cx, cy, r)) == self._within(cx, cy, r)
