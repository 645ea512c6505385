"""Properties of the batched Algorithm 2 and the scan built on it.

``compute_scores_batch`` takes every decision as early as it is final —
entries pruned against the pending set's bounding box when their parent
opens, one heap entry per leaf run, a drop cursor that ends the scan when
every object is doomed.  None of that may change a score: the batch must
equal the per-object ``compute_score`` on every object the threshold has
not doomed (a doomed one is left at 0.0), ``stds`` must equal brute
force at every ``batch_size``, and ``reaches`` — the fold asked one
floor question, over every set or all but one — must answer as brute
force does.

Worlds sit where those shortcuts bite: 256-byte pages (fan-out 5-7, so
40 features make a height-3 tree), coordinates on a 1/8 lattice with
tight clusters around it, scores in multiples of 1/8 and a three-term
vocabulary so ties are the rule, and objects far outside every leaf MBR.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force, component_score
from repro.core.processor import INDEX_CLASSES, QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.core.stds import (
    _DROP_EPS, compute_score, compute_scores_batch, reaches, stds,
)
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.storage.pagefile import MemoryPageFile
from repro.text.vocabulary import Vocabulary

VOCAB = Vocabulary(["a", "b", "c"])
PAGE_SIZE = 256
EIGHTHS = [k / 8 for k in range(9)]
RADII = [1e-6, 0.01, 0.5]

coordinate = st.one_of(
    st.sampled_from(EIGHTHS),
    st.builds(
        lambda centre, offset: min(1.0, max(0.0, centre + offset)),
        st.sampled_from(EIGHTHS),
        st.floats(-0.02, 0.02, allow_nan=False),
    ),
)
# Data objects also land well outside the features' unit square.
object_coordinate = st.one_of(coordinate, st.floats(1.6, 2.0, allow_nan=False))
keywords = st.sets(st.sampled_from(range(3)), min_size=1).map(frozenset)
feature = st.tuples(coordinate, coordinate, st.sampled_from(EIGHTHS), keywords)
feature_set = st.lists(feature, min_size=8, max_size=40)
points = st.lists(
    st.tuples(object_coordinate, object_coordinate), min_size=6, max_size=30
)
mask = st.integers(1, 7)
profile = settings(derandomize=True, deadline=None, max_examples=60)


def dataset(rows) -> FeatureDataset:
    return FeatureDataset(
        [FeatureObject(i, *row) for i, row in enumerate(rows)], VOCAB, "p"
    )


# The caller's fold state: none, or partial scores (one shared value —
# the case that ends the scan early — or one each), how far the
# threshold sits above ``remaining_sets``, and ``remaining_sets``.
fold = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["equal", "varied"]),
        # up to 3.0: some objects are past the threshold already and
        # can never be dropped, whatever the others need.
        st.lists(
            st.sampled_from(EIGHTHS + [1.5, 2.0, 3.0]), min_size=30, max_size=30
        ),
        st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.5]),
        st.integers(0, 2),
    ),
)


@settings(profile, max_examples=200)
@given(
    rows=feature_set,
    locations=points,
    index=st.sampled_from(["srt", "ir2"]),
    radius=st.sampled_from(RADII),
    lam=st.sampled_from([0.0, 0.5]),
    query_mask=mask,
    fold_state=fold,
)
def test_batch_equals_single_on_every_object_not_doomed(
    rows, locations, index, radius, lam, query_mask, fold_state
):
    tree = INDEX_CLASSES[index].build(
        dataset(rows), pagefile=MemoryPageFile(PAGE_SIZE)
    )
    query = PreferenceQuery(
        k=1, radius=radius, lam=lam, keyword_masks=(query_mask,)
    )
    pending = dict(enumerate(locations))
    single = {
        oid: compute_score(tree, query, query_mask, point)
        for oid, point in pending.items()
    }
    if fold_state is None:
        assert compute_scores_batch(tree, query, query_mask, pending) == single
        return
    mode, values, margin, remaining = fold_state
    threshold = margin + remaining
    partial = {
        oid: values[0] if mode == "equal" else values[oid] for oid in pending
    }
    got = compute_scores_batch(
        tree, query, query_mask, pending,
        partial=partial, threshold=threshold, remaining_sets=remaining,
    )
    slack = threshold - remaining - _DROP_EPS
    for oid, score in single.items():
        # Doomed: even the object's true score leaves it strictly below
        # the threshold, so the cursor drops it before it can resolve.
        doomed = slack - partial[oid] > score
        assert got[oid] == (0.0 if doomed else score), (oid, doomed)


@profile
@given(
    sets=st.lists(feature_set, min_size=1, max_size=3),
    locations=points,
    index=st.sampled_from(["srt", "ir2"]),
    radius=st.sampled_from(RADII),
    k=st.sampled_from([1, 3, 40]),
    masks=st.lists(mask, min_size=3, max_size=3),
)
def test_stds_equals_brute_force_at_every_batching(
    sets, locations, index, radius, k, masks
):
    objects = ObjectDataset(
        [DataObject(i, x, y) for i, (x, y) in enumerate(locations)]
    )
    feature_sets = [dataset(rows) for rows in sets]
    processor = QueryProcessor.build(
        objects, feature_sets, index=index, page_size=PAGE_SIZE
    )
    query = PreferenceQuery(
        k=k, radius=radius, lam=0.5, keyword_masks=tuple(masks[: len(sets)])
    )
    want = brute_force(objects, feature_sets, query)
    for batch_size in (1, 3, 1024):
        got = stds(
            processor.object_tree, processor.feature_trees, query,
            batch_size=batch_size,
        )
        assert [item.oid for item in got.items] == [
            item.oid for item in want.items
        ], batch_size
        assert got.scores == pytest.approx(want.scores, abs=1e-9)


@pytest.mark.parametrize(
    "c, skip",
    [(2, None), (2, 0), (2, 1), (3, None), (3, 0), (3, 1), (3, 2)],
)
@settings(profile, max_examples=8)
@given(
    sets=st.lists(feature_set, min_size=3, max_size=3),
    locations=points,
    variant=st.sampled_from(list(Variant)),
    radius=st.sampled_from(RADII[1:]),
    masks=st.lists(mask, min_size=3, max_size=3),
    rank=st.integers(0, 2),
    offset=st.sampled_from([-1e-6, 1e-6, -0.25, 0.25]),
)
def test_reaches_iff_some_object_sums_to_the_floor(
    c, skip, sets, locations, variant, radius, masks, rank, offset
):
    """``reaches(..., floor, skip)`` is True iff some object's
    brute-force ``Σ_{j≠skip} τ_j`` is at least ``floor``; floors sit just
    either side of one of the three best sums, and a quarter off it."""
    objects = ObjectDataset(
        [DataObject(i, x, y) for i, (x, y) in enumerate(locations)]
    )
    feature_sets = [dataset(rows) for rows in sets[:c]]
    processor = QueryProcessor.build(
        objects, feature_sets, page_size=PAGE_SIZE
    )
    query = PreferenceQuery(
        k=1, radius=radius, lam=0.5, keyword_masks=tuple(masks[:c]),
        variant=variant,
    )
    sums = [
        sum(
            component_score(o.x, o.y, fs, m, query)
            for j, (fs, m) in enumerate(zip(feature_sets, query.keyword_masks))
            if j != skip
        )
        for o in objects
    ]
    floor = sorted(sums, reverse=True)[rank % len(sums)] + offset
    got = reaches(
        processor.feature_trees, query,
        [(o.oid, o.x, o.y) for o in objects], floor, skip,
    )
    assert got is any(total >= floor for total in sums)
