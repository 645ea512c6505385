"""Property: the join-on-pull iterator equals brute-force enumeration.

Worlds are built to sit on the grid's seams: coordinates on a lattice
whose spacing is exactly ``2r`` (every lattice point lies on a cell
border, neighbouring ones are exactly ``2r`` apart, which is still
valid) mixed with tight clusters around them; scores are multiples of
1/8 so ties are common and every sum is exact.  With ``λ = 0`` and one
shared keyword ``s(t)`` is the feature's own score, so the brute force
needs no scorer.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import PreferenceQuery, Variant
from repro.core.stream import VIRTUAL_FID
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.model.objects import FeatureObject
from repro.text.vocabulary import Vocabulary
from tests.conftest import combination_iterator

VOCAB = Vocabulary(["a"])
RADIUS = 1 / 16
LATTICE = [k / 8 for k in range(9)]  # spacing 2r, exact in binary

coordinate = st.one_of(
    st.sampled_from(LATTICE),
    st.builds(
        lambda centre, offset: min(1.0, max(0.0, centre + offset)),
        st.sampled_from(LATTICE),
        st.floats(-0.13, 0.13, allow_nan=False),
    ),
)
feature = st.tuples(
    coordinate, coordinate, st.sampled_from([k / 8 for k in range(9)])
)
world = st.integers(2, 4).flatmap(
    lambda c: st.lists(
        st.lists(feature, min_size=1, max_size=5), min_size=c, max_size=c
    )
)


def brute_force(sets, diameter, enforce_2r):
    """``{fid tuple: score}`` of every valid combination, ``∅`` included."""
    out = {}
    for combo in itertools.product(*([*fs, None] for fs in sets)):
        real = [f for f in combo if f is not None]
        if enforce_2r and any(
            math.hypot(a.x - b.x, a.y - b.y) > diameter
            for a, b in itertools.combinations(real, 2)
        ):
            continue
        key = tuple(VIRTUAL_FID if f is None else f.fid for f in combo)
        out[key] = sum(f.score for f in real)
    return out


def check_against_brute_force(rows, radius, enforce_2r):
    """The range variant joins under the 2r rule, influence without."""
    sets = [
        [
            FeatureObject(fid, x, y, score, frozenset({0}))
            for fid, (x, y, score) in enumerate(fs)
        ]
        for fs in rows
    ]
    trees = [SRTIndex.build(FeatureDataset(fs, VOCAB, "p")) for fs in sets]
    query = PreferenceQuery(
        k=1, radius=radius, lam=0.0, keyword_masks=(1,) * len(sets),
        variant=Variant.RANGE if enforce_2r else Variant.INFLUENCE,
    )
    iterator = combination_iterator(trees, query)
    got = []
    while (combo := iterator.next()) is not None:
        got.append((tuple(f.fid for f in combo.features), combo.score))
    expected = brute_force(sets, 2.0 * radius, enforce_2r)
    keys = [key for key, _ in got]
    assert len(set(keys)) == len(keys), "a tuple was produced twice"
    # Same tuples with the same (exact) scores, released best first: so
    # every tie group holds the same set of tuples as the brute force's.
    assert dict(got) == expected
    scores = [score for _, score in got]
    assert scores == sorted(scores, reverse=True)
    assert iterator.stats.combinations == len(expected)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(rows=world, enforce_2r=st.booleans())
def test_sequence_equals_brute_force(rows, enforce_2r):
    check_against_brute_force(rows, RADIUS, enforce_2r)


# A fixed world with a pair at distance exactly 2r across a cell border,
# a coincident pair, and a far point.  1e-300 squares to zero inside a
# grid probe, the smallest denormal overflows ``1 / (2r)`` and 1e308
# overflows ``2r`` itself unless the cell size is clamped, and from 2.0
# up every pair is valid.  (An infinite radius is not a query.)
EDGE_WORLD = [
    [(0.25, 0.5, 0.875), (0.375, 0.5, 0.5), (0.9, 0.9, 0.75)],
    [(0.375, 0.5, 0.625), (0.25, 0.5, 0.25), (0.3, 0.52, 0.75)],
    [(0.25, 0.5, 0.5), (0.31, 0.5, 0.375)],
]


@pytest.mark.parametrize(
    "radius",
    [5e-324, 1e-300, 1e-6, 0.01, RADIUS, 0.5, 2.0, 1e308],
)
def test_radius_extremes(radius):
    check_against_brute_force(EDGE_WORLD, radius, True)
    check_against_brute_force(EDGE_WORLD[:2], radius, True)
