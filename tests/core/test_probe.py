"""The one best-first probe against a sort.

:func:`repro.core.stream.probe` is Algorithm 2 under each variant's
priority, the Voronoi competitor stream and ISS's node bound.  Drained,
it must yield every relevant feature exactly once with its per-definition
key and value, in the order a sort by key gives (NN: distance, then best
score first), a leaf's ties in row order.  Its first yield must be
``component_score`` bit for bit, and for a rectangle its first influence
value must bound the score of every point inside.

Worlds sit where ties and mask widths bite: 256-byte pages, coordinates
on a 1/8 lattice with small jitter around it, scores in eighths, and
vocabularies of 8, 64 and 130 terms (one, eight and seventeen mask
bytes) whose few used terms span every mask word.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import component_score
from repro.core.processor import INDEX_CLASSES
from repro.core.query import PreferenceQuery, Variant
from repro.core.stream import probe
from repro.geometry.rect import Rect
from repro.model.dataset import FeatureDataset
from repro.model.objects import FeatureObject
from repro.obs.explain import FeatureSetDiag
from repro.storage.pagefile import MemoryPageFile
from repro.text.similarity import jaccard
from repro.text.vocabulary import Vocabulary

PAGE_SIZE = 256
EIGHTHS = [k / 8 for k in range(9)]
VOCABS = {n: Vocabulary(f"t{i}" for i in range(n)) for n in (8, 64, 130)}

coordinate = st.one_of(
    st.sampled_from(EIGHTHS),
    st.builds(
        lambda centre, offset: min(1.0, max(0.0, centre + offset)),
        st.sampled_from(EIGHTHS),
        st.floats(-0.02, 0.02, allow_nan=False),
    ),
)
unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def worlds(draw):
    """(dataset, query mask) over one of the vocabularies."""
    n_terms = draw(st.sampled_from(sorted(VOCABS)))
    terms = sorted({0, 1, n_terms // 2, n_terms - 1})
    keywords = st.sets(st.sampled_from(terms), min_size=1).map(frozenset)
    rows = draw(
        st.lists(
            st.tuples(
                coordinate, coordinate, st.sampled_from(EIGHTHS), keywords
            ),
            min_size=1, max_size=40,
        )
    )
    query_terms = draw(st.sets(st.sampled_from(terms), min_size=1))
    features = [FeatureObject(i, *row) for i, row in enumerate(rows)]
    dataset = FeatureDataset(features, VOCABS[n_terms], "p")
    return dataset, sum(1 << t for t in query_terms)


def tie_world(better_left: bool):
    """Two relevant features 1/8 either side of (0.5, 0.5), in different
    SRT leaves: the one at (0.625, 0.5) shares a leaf whose rectangle
    holds the point, so the other's leaf is still closed, at a tying
    ``mindist``, when the first is reached."""
    left, right = (0.875, 0.25) if better_left else (0.25, 0.875)
    rows = [(0.375, 0.5, left), (0.625, 0.5, right)]
    for k in range(8):
        rows += [(0.25, k / 8, 0.0), (0.75, k / 8, 0.0)]
    features = [
        FeatureObject(i, x, y, s, frozenset({0}))
        for i, (x, y, s) in enumerate(rows)
    ]
    return FeatureDataset(features, VOCABS[8], "tie"), 1


def leaf_positions(tree) -> dict[int, tuple[int, int]]:
    """fid -> (leaf page, row) of every feature in the tree."""
    out = {}
    stack = [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        if node.is_leaf:
            for row, fid in enumerate(tree.leaf_arrays(node).fids.tolist()):
                out[fid] = (node.page_id, row)
        else:
            stack.extend(e.child for e in node.entries)
    return out


def expected(dataset, mask, lam, variant, radius, target):
    """fid -> (key, value) of every feature the probe must yield."""
    out = {}
    for f in dataset:
        if not f.keyword_mask() & mask:
            continue
        s = (1.0 - lam) * f.score + lam * jaccard(f.keyword_mask(), mask)
        if isinstance(target, Rect):  # influence only
            (lx, ly), (hx, hy) = target.low, target.high
            d = math.hypot(
                max(lx - f.x, 0.0, f.x - hx), max(ly - f.y, 0.0, f.y - hy)
            )
        else:
            dx, dy = f.x - target[0], f.y - target[1]
            d = math.hypot(dx, dy)
        if variant is Variant.RANGE:
            if dx * dx + dy * dy <= radius * radius:
                out[f.fid] = (-s, s)
        elif variant is Variant.INFLUENCE:
            value = s * 2.0 ** (-d / radius)
            out[f.fid] = (-value, value)
        else:
            out[f.fid] = (d, s)
    return out


def check_sorted(got, want, variant, positions) -> None:
    """``got`` is ``want`` by key, NN ties best first, a leaf's by row."""
    assert {fid: (key, value) for key, value, fid, _, _ in got} == want
    assert len(got) == len(want)

    def tie(key, value):
        return (key, -value) if variant is Variant.NEAREST else (key,)

    ties = [tie(key, value) for key, value, _, _, _ in got]
    assert ties == sorted(tie(*kv) for kv in want.values())
    last_row = {}
    for t, (_, _, fid, _, _) in zip(ties, got):
        page, row = positions[fid]
        assert last_row.get((t, page), -1) < row
        last_row[t, page] = row


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    world=worlds(),
    index=st.sampled_from(["srt", "ir2"]),
    lam=st.sampled_from([0.0, 0.5, 1.0]),
    radius=st.sampled_from([1e-6, 0.1, 0.5]),
    point=st.tuples(coordinate, coordinate),
    corner=st.tuples(coordinate, coordinate),
    inside=st.lists(st.tuples(unit, unit), min_size=1, max_size=4),
)
@example(
    world=tie_world(True), index="srt", lam=0.0, radius=0.1,
    point=(0.5, 0.5), corner=(0.5, 0.5), inside=[(0.0, 0.0)],
)
@example(
    world=tie_world(False), index="srt", lam=0.0, radius=0.1,
    point=(0.5, 0.5), corner=(0.5, 0.5), inside=[(0.0, 0.0)],
)
def test_probe_is_a_sort(world, index, lam, radius, point, corner, inside):
    dataset, mask = world
    tree = INDEX_CLASSES[index].build(
        dataset, pagefile=MemoryPageFile(PAGE_SIZE)
    )
    scorer = tree.make_scorer(mask, lam)
    positions = leaf_positions(tree)
    for variant in Variant:
        stats = FeatureSetDiag(0)
        got = list(probe(tree, scorer, point, variant, radius, stats))
        check_sorted(
            got, expected(dataset, mask, lam, variant, radius, point),
            variant, positions,
        )
        # Every pop is a feature taken or a node opened.
        assert stats.heap_pops == len(got) + stats.nodes_visited
        query = PreferenceQuery(
            k=1, radius=radius, lam=lam, keyword_masks=(mask,),
            variant=variant,
        )
        first = got[0][1] if got else 0.0
        assert first == component_score(*point, dataset, mask, query)

    # ISS: a rectangle's first influence value bounds every point inside.
    rect = Rect(
        (min(point[0], corner[0]), min(point[1], corner[1])),
        (max(point[0], corner[0]), max(point[1], corner[1])),
    )
    got = list(probe(tree, scorer, rect, Variant.INFLUENCE, radius))
    check_sorted(
        got, expected(dataset, mask, lam, Variant.INFLUENCE, radius, rect),
        Variant.INFLUENCE, positions,
    )
    bound = got[0][1] if got else 0.0
    query = PreferenceQuery(
        k=1, radius=radius, lam=lam, keyword_masks=(mask,),
        variant=Variant.INFLUENCE,
    )
    (lx, ly), (hx, hy) = rect.low, rect.high
    for fx, fy in inside:
        x = min(hx, lx + fx * (hx - lx))
        y = min(hy, ly + fy * (hy - ly))
        assert component_score(x, y, dataset, mask, query) <= bound
