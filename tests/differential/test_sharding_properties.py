"""Property-based equivalence: sharded engine == unsharded engine.

hypothesis generates adversarial little worlds — objects and features on
a coarse coordinate lattice so many points land exactly on shard
boundaries and in the halo band — and asserts that a
:class:`~repro.shard.ShardedQueryProcessor` returns *exactly* what the
unsharded :class:`~repro.core.processor.QueryProcessor` returns, for
every shard count, layout, and replication mode.  The suite runs under
the derandomized ``differential`` profile (see ``conftest.py``), so CI
executes the same examples every time.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.shard import ShardedQueryProcessor, partition
from repro.text.vocabulary import Vocabulary

VOCAB = Vocabulary(f"kw{i}" for i in range(8))
HALO_RADIUS = 0.25

# Coarse lattice: 9 coordinate values, so grid/kd cut lines (multiples of
# 1/2, 1/4...) collide with object/feature positions and the halo band
# boundary is exactly attainable (|x - cut| == HALO_RADIUS).
COORDS = [i / 8 for i in range(9)]
SCORES = [0.0, 0.25, 0.5, 1.0]

coord = st.sampled_from(COORDS)
score = st.sampled_from(SCORES)
kw_mask = st.integers(min_value=1, max_value=(1 << len(VOCAB)) - 1)


@st.composite
def worlds(draw):
    """A small dataset pair plus a query against it."""
    n_objects = draw(st.integers(min_value=1, max_value=24))
    objects = ObjectDataset(
        [
            DataObject(i, draw(coord), draw(coord))
            for i in range(n_objects)
        ]
    )
    n_sets = draw(st.integers(min_value=1, max_value=2))
    feature_sets = []
    for j in range(n_sets):
        n_features = draw(st.integers(min_value=0, max_value=12))
        feature_sets.append(
            FeatureDataset(
                [
                    FeatureObject(
                        i,
                        draw(coord),
                        draw(coord),
                        draw(score),
                        frozenset(
                            draw(
                                st.sets(
                                    st.integers(0, len(VOCAB) - 1),
                                    min_size=1,
                                    max_size=3,
                                )
                            )
                        ),
                    )
                    for i in range(n_features)
                ],
                VOCAB,
                f"set{j}",
            )
        )
    query = PreferenceQuery(
        k=draw(st.integers(min_value=1, max_value=6)),
        radius=draw(st.sampled_from([0.1, HALO_RADIUS])),
        lam=draw(st.sampled_from([0.0, 0.5, 1.0])),
        keyword_masks=tuple(draw(kw_mask) for _ in range(n_sets)),
        variant=draw(st.sampled_from(list(Variant))),
    )
    return objects, feature_sets, query


def _items(result):
    return [(item.oid, item.score) for item in result.items]


@given(
    world=worlds(),
    shards=st.sampled_from([1, 2, 4, 7]),
    method=st.sampled_from(["grid", "kd"]),
)
def test_full_replication_equals_unsharded(world, shards, method):
    """All variants: object-partitioned shards with full feature sets."""
    objects, feature_sets, query = world
    base = QueryProcessor.build(objects, feature_sets)
    with ShardedQueryProcessor.build(
        objects,
        feature_sets,
        shards=shards,
        radius=HALO_RADIUS,
        method=method,
        replication="full",
    ) as sharded:
        assert _items(sharded.query(query)) == _items(base.query(query))


@given(
    world=worlds(),
    shards=st.sampled_from([1, 2, 4, 7]),
    method=st.sampled_from(["grid", "kd"]),
)
def test_halo_replication_equals_unsharded(world, shards, method):
    """Range variant: r-halo feature replication is exact."""
    objects, feature_sets, query = world
    query = query.with_variant(Variant.RANGE)
    base = QueryProcessor.build(objects, feature_sets)
    with ShardedQueryProcessor.build(
        objects,
        feature_sets,
        shards=shards,
        radius=HALO_RADIUS,
        method=method,
        replication="halo",
    ) as sharded:
        assert _items(sharded.query(query)) == _items(base.query(query))


@given(
    world=worlds(),
    shards=st.sampled_from([2, 4, 7]),
    method=st.sampled_from(["grid", "kd"]),
)
def test_partition_is_exact_cover(world, shards, method):
    """Objects land in exactly one shard; halos cover the r-band.

    The boundary rule (a point on a cut line belongs to the upper /
    higher-index region) must make the shards a *partition* of the
    objects — no duplicates, no losses — and every shard's feature halo
    must contain all features within ``r`` of its bbox.
    """
    objects, feature_sets, _ = world
    specs = partition(
        objects, feature_sets, shards, HALO_RADIUS, method=method
    )
    assigned = [o.oid for spec in specs for o in spec.objects]
    assert sorted(assigned) == sorted(o.oid for o in objects)
    assert len(assigned) == len(set(assigned))
    for spec in specs:
        for i, feature_set in enumerate(feature_sets):
            kept = {f.fid for f in spec.feature_sets[i]}
            for f in feature_set:
                if spec.bbox.mindist((f.x, f.y)) <= HALO_RADIUS:
                    assert f.fid in kept, (
                        f"shard {spec.shard_id} lost feature {f.fid} "
                        f"inside its halo"
                    )


@given(world=worlds(), shards=st.sampled_from([2, 4]))
@settings(max_examples=10)
def test_boundary_objects_kept_once(world, shards):
    """An object exactly on a cut line is scored by exactly one shard.

    Stronger than exact-cover: run a query whose top-k must contain the
    boundary objects and check ids are unique in the merged result.
    """
    objects, feature_sets, query = world
    query = query.with_variant(Variant.RANGE)
    with ShardedQueryProcessor.build(
        objects,
        feature_sets,
        shards=shards,
        radius=HALO_RADIUS,
        replication="halo",
    ) as sharded:
        items = sharded.query(query).items
        oids = [item.oid for item in items]
        assert len(oids) == len(set(oids))
        assert len(oids) == min(query.k, len(objects))


def test_lattice_straddles_grid_cuts():
    """Sanity: the lattice really collides with the 2- and 4-shard cuts."""
    cuts = {Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)}
    lattice = {Fraction(i, 8) for i in range(9)}
    assert cuts < lattice
