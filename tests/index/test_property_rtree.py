"""Property-based tests over whole R-trees (hypothesis-driven)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.object_rtree import ObjectRTree
from repro.model.objects import DataObject

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

point_lists = st.lists(
    st.tuples(unit, unit), min_size=0, max_size=120
)


@st.composite
def tree_and_query(draw):
    points = draw(point_lists)
    objects = [DataObject(i, x, y) for i, (x, y) in enumerate(points)]
    method = draw(st.sampled_from(["hilbert", "str", "insert"]))
    cx, cy = draw(unit), draw(unit)
    radius = draw(st.floats(min_value=0.0, max_value=0.6, allow_nan=False))
    return objects, method, (cx, cy), radius


class TestRangeQueryProperty:
    @given(tree_and_query())
    @settings(max_examples=60, deadline=None)
    def test_range_search_equals_brute_force(self, setup):
        objects, method, center, radius = setup
        tree = ObjectRTree.build(objects, method=method)
        got = sorted(e.oid for e in tree.range_search(center, radius))
        # The index's documented predicate is dx² + dy² <= r² (see
        # ``ObjectRTree.within_all``); ``math.hypot`` differs from it
        # for denormal offsets, whose squares underflow to zero.
        want = sorted(
            o.oid
            for o in objects
            if (o.x - center[0]) ** 2 + (o.y - center[1]) ** 2 <= radius * radius
        )
        assert got == want

    @given(point_lists, st.sampled_from(["hilbert", "str", "insert"]))
    @settings(max_examples=40, deadline=None)
    def test_structure_invariants_hold(self, points, method):
        objects = [DataObject(i, x, y) for i, (x, y) in enumerate(points)]
        tree = ObjectRTree.build(objects, method=method)
        tree.validate()
        assert tree.count == len(objects)

    @given(point_lists)
    @settings(max_examples=30, deadline=None)
    def test_build_methods_agree(self, points):
        objects = [DataObject(i, x, y) for i, (x, y) in enumerate(points)]
        results = []
        for method in ("hilbert", "str", "insert"):
            tree = ObjectRTree.build(objects, method=method)
            results.append(
                sorted(e.oid for e in tree.range_search((0.5, 0.5), 0.25))
            )
        assert results[0] == results[1] == results[2]
