"""Tests for incremental Voronoi cells over relevant features."""

import math
import random

import pytest

from repro.core.query import Variant
from repro.core.stream import probe
from repro.core.voronoi import DATA_SPACE, clip_voronoi_cell, voronoi_cell
from repro.geometry.polygon import ConvexPolygon
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.model.objects import FeatureObject
from repro.text.vocabulary import Vocabulary
from tests.conftest import VOCAB_SIZE, make_feature_objects, random_mask


@pytest.fixture(scope="module")
def world():
    vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
    dataset = FeatureDataset(make_feature_objects(120, seed=91), vocab, "V")
    tree = SRTIndex.build(dataset)
    return dataset, tree


class TestNearestRelevant:
    """The competitor stream is :func:`repro.core.stream.probe` by
    distance; ``tests/core/test_probe.py`` holds its order and
    completeness."""

    def test_empty_tree(self, world):
        dataset, _ = world
        empty = SRTIndex.build(FeatureDataset([], dataset.vocabulary, "e"))
        scorer = empty.make_scorer(1, 0.5)
        got = probe(empty, scorer, (0.5, 0.5), Variant.NEAREST, 0.0)
        assert list(got) == []


class TestVoronoiCell:
    """Cell membership must exactly match the nearest-relevant relation."""

    @pytest.mark.parametrize("seed", range(4))
    def test_cell_membership_is_nn(self, world, seed):
        dataset, tree = world
        rng = random.Random(seed)
        mask = random_mask(rng, 4)
        scorer = tree.make_scorer(mask, 0.5)
        relevant = [f for f in dataset if f.keyword_mask() & mask]
        if not relevant:
            pytest.skip("no relevant features for this mask")
        site = rng.choice(relevant)
        cell = voronoi_cell(tree, scorer, site.location, site.fid)
        for _ in range(300):
            p = (rng.random(), rng.random())
            nearest = min(
                relevant,
                key=lambda f: (math.hypot(f.x - p[0], f.y - p[1]), f.fid),
            )
            if cell.contains(p):
                # p's nearest relevant feature is (within ties) the site.
                d_site = math.hypot(site.x - p[0], site.y - p[1])
                d_best = math.hypot(nearest.x - p[0], nearest.y - p[1])
                assert d_site <= d_best + 1e-6
            elif nearest.fid == site.fid:
                # Missing a true member is only excusable on the boundary.
                second = min(
                    (f for f in relevant if f.fid != site.fid),
                    key=lambda f: math.hypot(f.x - p[0], f.y - p[1]),
                    default=None,
                )
                if second is not None:
                    d_site = math.hypot(site.x - p[0], site.y - p[1])
                    d2 = math.hypot(second.x - p[0], second.y - p[1])
                    assert abs(d_site - d2) < 1e-6

    def test_cells_partition_space(self, world):
        """Cells of all relevant features tile the data space."""
        dataset, tree = world
        mask = 0b1111
        scorer = tree.make_scorer(mask, 0.5)
        relevant = [f for f in dataset if f.keyword_mask() & mask]
        cells = [
            voronoi_cell(tree, scorer, f.location, f.fid) for f in relevant
        ]
        total_area = sum(c.area() for c in cells)
        assert total_area == pytest.approx(1.0, abs=1e-6)

    def test_single_relevant_feature_owns_everything(self, world):
        dataset, tree = world
        # Build a one-relevant-feature world within the same tree by using
        # a mask only one feature matches, if it exists; otherwise skip.
        from collections import Counter

        counts = Counter()
        for f in dataset:
            for kw in f.keywords:
                counts[kw] += 1
        singletons = [kw for kw, n in counts.items() if n == 1]
        if not singletons:
            pytest.skip("no singleton keyword in dataset")
        kw = singletons[0]
        mask = 1 << kw
        scorer = tree.make_scorer(mask, 0.5)
        owner = next(f for f in dataset if kw in f.keywords)
        cell = voronoi_cell(tree, scorer, owner.location, owner.fid)
        assert cell.area() == pytest.approx(1.0, abs=1e-9)

    def test_clip_from_empty_region(self, world):
        dataset, tree = world
        scorer = tree.make_scorer(0b1, 0.5)
        f = next(f for f in dataset if f.keyword_mask() & 0b1)
        out = clip_voronoi_cell(
            tree, scorer, f.location, f.fid, ConvexPolygon()
        )
        assert out.is_empty

    def test_data_space_constant(self):
        assert DATA_SPACE.low == (0.0, 0.0)
        assert DATA_SPACE.high == (1.0, 1.0)
