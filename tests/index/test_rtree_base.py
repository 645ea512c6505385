"""Tests for generic R-tree machinery: splits, bulk loading, metadata."""

import random

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geometry.rect import Rect
from repro.index.nodes import ObjectLeafEntry
from repro.index.object_rtree import ObjectRTree
from repro.index.rtree_base import MIN_FILL_RATIO, RTreeBase, _quadratic_split
from repro.storage.pagefile import MemoryPageFile
from tests.conftest import make_data_objects


class TestBulkLoad:
    def test_double_build_rejected(self):
        tree = ObjectRTree.build(make_data_objects(10, 1))
        with pytest.raises(IndexError_):
            tree.bulk_load([])

    def test_bad_fill_factor(self):
        tree = ObjectRTree()
        with pytest.raises(IndexError_):
            tree.bulk_load([], fill=0.05)
        tree2 = ObjectRTree()
        with pytest.raises(IndexError_):
            tree2.bulk_load([], fill=1.5)

    def test_height_grows_with_size(self):
        small = ObjectRTree.build(make_data_objects(50, 1))
        big = ObjectRTree.build(make_data_objects(40_000, 1))
        assert big.height > small.height

    def test_fill_factor_changes_page_count(self):
        objects = make_data_objects(3000, 2)
        full = ObjectRTree()
        full.bulk_load(
            [ObjectLeafEntry(o.oid, o.x, o.y) for o in objects], fill=1.0
        )
        half = ObjectRTree()
        half.bulk_load(
            [ObjectLeafEntry(o.oid, o.x, o.y) for o in objects], fill=0.5
        )
        assert half.pagefile.page_count > full.pagefile.page_count

    def test_empty_bulk_load(self):
        tree = ObjectRTree()
        tree.bulk_load([])
        assert tree.height == 1
        assert tree.count == 0
        tree.validate()


class TestInsertSplits:
    def test_root_split_grows_height(self):
        tree = ObjectRTree(MemoryPageFile(page_size=256))  # tiny fan-out
        objects = make_data_objects(200, 3)
        for o in objects:
            tree.insert(ObjectLeafEntry(o.oid, o.x, o.y))
        assert tree.height >= 3
        tree.validate()
        assert tree.count == 200

    def test_min_fill_respected_after_splits(self):
        tree = ObjectRTree(MemoryPageFile(page_size=256))
        for o in make_data_objects(300, 4):
            tree.insert(ObjectLeafEntry(o.oid, o.x, o.y))
        # Every non-root node must hold at least ~40% of fan-out - 1.
        stack = [(tree.root_id, True)]
        while stack:
            page_id, is_root = stack.pop()
            node = tree.read_node(page_id)
            fanout = tree.leaf_fanout if node.is_leaf else tree.internal_fanout
            if not is_root:
                assert len(node.entries) >= max(1, int(0.4 * fanout)) - 1
            if not node.is_leaf:
                stack.extend((e.child, False) for e in node.entries)


def reference_split(rects: list[Rect], min_fill: int):
    """Guttman's quadratic split as pairwise loops over ``Rect`` objects:
    what :func:`_quadratic_split` must reproduce pick for pick."""
    worst, seed_a, seed_b = -1.0, 0, 1
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            waste = (
                rects[i].union(rects[j]).area()
                - rects[i].area()
                - rects[j].area()
            )
            if waste > worst:
                worst, seed_a, seed_b = waste, i, j
    group_a, group_b = [seed_a], [seed_b]
    rect_a, rect_b = rects[seed_a], rects[seed_b]
    remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]
    while remaining:
        if len(group_a) + len(remaining) == min_fill:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_fill:
            group_b.extend(remaining)
            break
        best_diff, pick, prefer_a = -1.0, remaining[0], True
        for i in remaining:
            cost_a = rect_a.union(rects[i]).area() - rect_a.area()
            cost_b = rect_b.union(rects[i]).area() - rect_b.area()
            if abs(cost_a - cost_b) > best_diff:
                best_diff, pick = abs(cost_a - cost_b), i
                prefer_a = cost_a < cost_b
        remaining.remove(pick)
        if prefer_a:
            group_a.append(pick)
            rect_a = rect_a.union(rects[pick])
        else:
            group_b.append(pick)
            rect_b = rect_b.union(rects[pick])
    return group_a, group_b


def random_rects(rng: random.Random, n: int, points: bool, dim: int = 2):
    """Rectangles (or points) that tie: half the sets sit on a coarse
    grid, so equal areas, wastes and duplicate corners are common; a
    third of the non-point rectangles are flat along some axis."""
    coarse = rng.random() < 0.5

    def coord() -> float:
        return rng.randrange(6) / 6 if coarse else rng.random()

    rects = []
    for _ in range(n):
        low = [coord() for _ in range(dim)]
        if points:
            high = list(low)
        else:
            high = [lo + coord() / 3 for lo in low]
            if rng.random() < 1 / 3:
                flat = rng.randrange(dim)
                high[flat] = low[flat]
        rects.append(Rect(tuple(low), tuple(high)))
    if points and n > 4:
        rects[-2:] = rects[:2]  # duplicate points
    return rects


class TestQuadraticSplit:
    @pytest.mark.parametrize("points", [True, False], ids=["leaf", "internal"])
    @pytest.mark.parametrize("fanout", [4, 72, 170])
    def test_same_groups_as_the_pairwise_loops(self, fanout, points):
        rng = random.Random(fanout * 2 + points)
        min_fill = max(1, int(fanout * MIN_FILL_RATIO))
        for _ in range(6):
            rects = random_rects(rng, fanout + 1, points)
            got = _quadratic_split(
                np.array([r.low for r in rects]),
                np.array([r.high for r in rects]),
                min_fill,
            )
            assert got == reference_split(rects, min_fill)

    def test_same_groups_in_four_dimensions(self):
        rng = random.Random(4)
        for points in (True, False):
            rects = random_rects(rng, 41, points, dim=4)
            got = _quadratic_split(
                np.array([r.low for r in rects]),
                np.array([r.high for r in rects]),
                16,
            )
            assert got == reference_split(rects, 16)

    def test_all_duplicates_split_on_the_first_pair(self):
        rects = [Rect((0.5, 0.5), (0.5, 0.5))] * 9
        lows = np.array([r.low for r in rects])
        assert _quadratic_split(lows, lows, 3) == reference_split(rects, 3)


class TestMetadataPage:
    def test_meta_written_and_readable(self):
        tree = ObjectRTree.build(make_data_objects(100, 5))
        meta = RTreeBase.read_meta(tree.pagefile)
        assert meta["kind"] == "object"
        assert meta["count"] == 100
        assert meta["root"] == tree.root_id
        assert meta["height"] == tree.height

    def test_meta_tracks_inserts(self):
        tree = ObjectRTree()
        tree.insert(ObjectLeafEntry(0, 0.5, 0.5))
        tree.insert(ObjectLeafEntry(1, 0.6, 0.6))
        meta = RTreeBase.read_meta(tree.pagefile)
        assert meta["count"] == 2


class TestValidate:
    def test_detects_stale_parent_entry(self):
        tree = ObjectRTree.build(make_data_objects(500, 6))
        root = tree.read_node(tree.root_id)
        assert not root.is_leaf
        # Corrupt a child's contents behind the parent's back.
        child = tree.read_node(root.entries[0].child)
        child.entries.append(ObjectLeafEntry(999_999, 0.0, 0.0))
        tree.write_node(child)
        with pytest.raises(IndexError_):
            tree.validate()

    def test_empty_tree_validates(self):
        ObjectRTree().validate()


class TestRootAccess:
    def test_empty_tree_root_rejected(self):
        with pytest.raises(IndexError_):
            ObjectRTree().root_node()
