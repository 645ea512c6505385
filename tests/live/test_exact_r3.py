"""Exact R3 and R5: a write that can raise a non-member is harmless
exactly when no object it can raise reaches ``s_k``.

On small worlds (c = 2 and 3) :meth:`~repro.live.LiveDataset.revalidate`
must say the answer survives iff the brute-force answer over the new
world is the old one — ids exact, scores at 1e-9, and an object lifted
to within ``_DROP_EPS`` of ``s_k`` counted as a change, as the rules
count ties.  R3: one relevant feature planted near a random object,
away from every reported one (range variant).  R5: one data object
inserted near a random object, in every variant.
"""

from __future__ import annotations

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force, object_score
from repro.core.query import PreferenceQuery, Variant
from repro.core.stds import _DROP_EPS
from repro.live import LiveDataset
from repro.model.objects import DataObject, FeatureObject

from tests.live.conftest import live_world

RADIUS = 0.15
MASK = 0b1111  # keywords 0-3 of the live vocabulary


@settings(max_examples=60)
@given(
    seed=st.integers(0, 1_000),
    c=st.sampled_from([2, 3]),
    near=st.integers(0, 29),
    dx=st.floats(-0.1, 0.1),
    dy=st.floats(-0.1, 0.1),
    score=st.floats(0.0, 1.0),
    keywords=st.frozensets(st.integers(0, 3), min_size=1),
    set_id=st.integers(0, 2),
)
def test_survives_iff_the_brute_force_answer_is_unchanged(
    seed, c, near, dx, dy, score, keywords, set_id
):
    objects, feature_sets = live_world(
        n_objects=30, n_features=25, seed=seed, n_sets=c
    )
    live = LiveDataset.build(
        objects, feature_sets, page_size=512, buffer_pages=16
    )
    query = PreferenceQuery(3, RADIUS, 0.5, (MASK,) * c)
    before = brute_force(objects, feature_sets, query).items
    anchor = list(objects)[near]
    x, y = anchor.x + dx, anchor.y + dy
    assume(
        all(
            (i.x - x) ** 2 + (i.y - y) ** 2 > (RADIUS * 1.01) ** 2
            for i in before
        )
    )
    live.insert_feature(
        set_id % c, FeatureObject(999_999, x, y, score, keywords)
    )
    after_sets = live.feature_snapshots()
    after = brute_force(objects, after_sets, query).items

    floor = before[-1].score - _DROP_EPS
    lifted_to_the_kth = any(
        now > object_score(p.x, p.y, feature_sets, query) and now >= floor
        for p in objects
        for now in [object_score(p.x, p.y, after_sets, query)]
    )
    changed = (
        [i.oid for i in after] != [i.oid for i in before]
        or any(abs(a.score - b.score) > 1e-9 for a, b in zip(after, before))
        or lifted_to_the_kth
    )
    survives = live.revalidate(query, before, 0) is not None
    assert survives is not changed


@settings(max_examples=60)
@given(
    seed=st.integers(0, 1_000),
    c=st.sampled_from([2, 3]),
    variant=st.sampled_from(list(Variant)),
    near=st.integers(0, 9),
    dx=st.floats(-0.05, 0.05),
    dy=st.floats(-0.05, 0.05),
)
def test_an_object_insert_survives_iff_the_brute_force_answer_is_unchanged(
    seed, c, variant, near, dx, dy
):
    objects, feature_sets = live_world(
        n_objects=30, n_features=25, seed=seed, n_sets=c
    )
    live = LiveDataset.build(
        objects, feature_sets, page_size=512, buffer_pages=16
    )
    query = PreferenceQuery(3, RADIUS, 0.5, (MASK,) * c, variant)
    # Beside one of the ten best, so newcomers land below, at and above
    # the k-th score alike; dx = dy = 0 ties the anchor.
    ranked = brute_force(
        objects, feature_sets, dataclasses.replace(query, k=10)
    )
    before = ranked.items[: query.k]
    anchor = ranked.items[near]
    x, y = anchor.x + dx, anchor.y + dy
    live.insert_object(DataObject(999_999, x, y))
    after = brute_force(live.objects_snapshot(), feature_sets, query).items

    floor = before[-1].score - _DROP_EPS
    changed = (
        [i.oid for i in after] != [i.oid for i in before]
        or any(abs(a.score - b.score) > 1e-9 for a, b in zip(after, before))
        or object_score(x, y, feature_sets, query) >= floor
    )
    survives = live.revalidate(query, before, 0) is not None
    assert survives is not changed
