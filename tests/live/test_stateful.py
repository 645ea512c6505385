"""Hypothesis stateful model checking of the live-update subsystem.

A :class:`RuleBasedStateMachine` interleaves every mutation op with
queries and cache clears against a tiny, split-happy world (page size
256, so inserts split and deletes condense constantly).  The shadow
model is :func:`repro.core.bruteforce.brute_force` over the live
dataset's id-keyed mirror — maintained independently of the trees — so
every query rule is a genuine differential check.  After *every* rule
two invariants run:

* **aggregate tightness** — ``check_consistency`` → ``validate()``,
  which recomputes each internal entry from its child: a stale-tight
  ``max_score`` or summary mask (the Lemma-1 killer) fails immediately;
* **cache coherence** — every decoded node still cached must equal a
  fresh decode of its page straight from the page file, bypassing both
  cache layers.

``test_broken_aggregate_update_is_caught`` /
``test_unpersisted_mutation_is_caught`` are the mutation-test checks:
they deliberately break the aggregate write-back / node persistence and
assert the same invariants catch it, proving the harness has teeth.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.bruteforce import brute_force
from repro.core.query import PreferenceQuery, Variant
from repro.errors import DatasetError, IndexError_
from repro.index.rtree_base import RTreeBase
from repro.live import LiveDataset
from repro.model.objects import DataObject, FeatureObject

from tests.live.conftest import live_world

SCORE_TOL = 1e-9
#: Coarse coordinate lattice: collisions and exact-boundary placements
#: are common, which is where geometric bookkeeping bugs live.
GRID = 8
#: Query masks address the low 8 vocabulary terms.
MASK_BITS = 8

positions = st.tuples(
    st.integers(0, GRID).map(lambda i: i / GRID),
    st.integers(0, GRID).map(lambda i: i / GRID),
)
scores = st.integers(0, 1000).map(lambda i: i / 1000)
keyword_sets = st.frozensets(st.integers(0, MASK_BITS - 1), min_size=1, max_size=3)


def assert_caches_coherent(live: LiveDataset) -> None:
    """Every cached decoded node == a fresh decode of its page.

    Reads pages straight from the page file (below the buffer pool), so
    a cached node surviving a page rewrite cannot hide behind another
    cache layer.
    """
    for tree in live.processor.trees():
        for page_id in tree.node_cache.page_ids():
            cached = tree.node_cache.peek(page_id)
            if cached is None:  # evicted between listing and peek
                continue
            fresh = tree.codec.decode(
                page_id, tree.pagefile.read(page_id).payload
            )
            assert cached.level == fresh.level, (
                f"page {page_id}: cached level {cached.level} != "
                f"persisted {fresh.level}"
            )
            assert cached.entries == fresh.entries, (
                f"page {page_id}: cached decode diverges from the "
                f"persisted page after a mutation"
            )


class LiveModelMachine(RuleBasedStateMachine):
    """Interleaved mutations × queries × cache clears vs brute force."""

    #: Floors so the world never degenerates to an empty tree mid-run.
    MIN_OBJECTS = 3
    MIN_FEATURES = 2

    def __init__(self) -> None:
        super().__init__()
        objects, feature_sets = live_world(
            n_objects=14, n_features=10, seed=31
        )
        self.live = LiveDataset.build(
            objects, feature_sets, page_size=256, buffer_pages=8
        )
        self._next_fid = 900_000
        self._next_oid = 900_000

    # -- mutation rules ------------------------------------------------
    @rule(set_id=st.integers(0, 1), pos=positions, score=scores,
          keywords=keyword_sets)
    def insert_feature(self, set_id, pos, score, keywords):
        self._next_fid += 1
        self.live.insert_feature(
            set_id,
            FeatureObject(self._next_fid, pos[0], pos[1], score, keywords),
        )

    @rule(set_id=st.integers(0, 1), pick=st.integers(0, 10**6))
    def delete_feature(self, set_id, pick):
        fids = self.live.feature_ids(set_id)
        if len(fids) <= self.MIN_FEATURES:
            return
        self.live.delete_feature(set_id, fids[pick % len(fids)])

    @rule(set_id=st.integers(0, 1), pick=st.integers(0, 10**6),
          pos=positions)
    def move_feature(self, set_id, pick, pos):
        fids = self.live.feature_ids(set_id)
        self.live.move_feature(set_id, fids[pick % len(fids)], *pos)

    @rule(set_id=st.integers(0, 1), pick=st.integers(0, 10**6),
          score=scores)
    def rescore_feature(self, set_id, pick, score):
        fids = self.live.feature_ids(set_id)
        self.live.rescore_feature(set_id, fids[pick % len(fids)], score)

    @rule(pos=positions)
    def insert_object(self, pos):
        self._next_oid += 1
        self.live.insert_object(DataObject(self._next_oid, pos[0], pos[1]))

    @rule(pick=st.integers(0, 10**6))
    def delete_object(self, pick):
        oids = self.live.object_ids()
        if len(oids) <= self.MIN_OBJECTS:
            return
        self.live.delete_object(oids[pick % len(oids)])

    # -- interleaved non-mutating operations ---------------------------
    @rule()
    def clear_caches(self):
        self.live.clear_buffers()

    @rule(
        masks=st.tuples(
            st.integers(1, 2**MASK_BITS - 1), st.integers(1, 2**MASK_BITS - 1)
        ),
        k=st.integers(1, 5),
        radius=st.sampled_from((0.15, 0.3)),
        lam=st.sampled_from((0.0, 0.5)),
        variant=st.sampled_from(list(Variant)),
        algorithm=st.integers(0, 1),
    )
    def query_matches_brute_force(self, masks, k, radius, lam, variant,
                                  algorithm):
        query = PreferenceQuery(k, radius, lam, masks, variant)
        algorithms = {
            Variant.RANGE: ("stps", "stds"),
            Variant.INFLUENCE: ("stps", "stds"),
            Variant.NEAREST: ("stps", "stps"),
        }[variant]
        got = self.live.query(query, algorithm=algorithms[algorithm]).items
        expected = brute_force(
            self.live.objects_snapshot(),
            self.live.feature_snapshots(),
            query,
        ).items
        assert [i.oid for i in got] == [i.oid for i in expected]
        for g, e in zip(got, expected):
            assert abs(g.score - e.score) <= SCORE_TOL

    # -- invariants (run after every rule) -----------------------------
    @invariant()
    def aggregates_are_exact(self):
        self.live.check_consistency()

    @invariant()
    def caches_are_coherent(self):
        assert_caches_coherent(self.live)


_base = settings.get_profile("repro-live")

TestLiveModelSmoke = LiveModelMachine.TestCase
TestLiveModelSmoke.settings = settings(
    _base, max_examples=8, stateful_step_count=20
)


class _DeepMachine(LiveModelMachine):
    """Same machine, longer walks — the CI live-updates job runs it."""


TestLiveModelDeep = pytest.mark.slow(_DeepMachine.TestCase)
TestLiveModelDeep.settings = settings(
    _base, max_examples=25, stateful_step_count=50
)


# ----------------------------------------------------------------------
# mutation tests: the harness must catch deliberately-broken updates
# ----------------------------------------------------------------------
def _mutate_a_lot(live: LiveDataset) -> None:
    """Mutations guaranteed to route through parent-entry write-back."""
    for i in range(12):
        live.insert_feature(
            0,
            FeatureObject(
                700_000 + i, (i % 4) / 4, (i % 3) / 3, 0.99, frozenset({1})
            ),
        )
    for fid in live.feature_ids(0)[:6]:
        live.rescore_feature(0, fid, 1.0)


def test_broken_aggregate_update_is_caught(monkeypatch):
    """No-op the parent-entry write-back; the tightness invariant fires.

    This is the documented mutation-test check: with
    ``RTreeBase._replace_child_entry`` disabled, internal entries go
    stale-tight after mutations (exactly the Lemma-1-violating bug class)
    and ``check_consistency`` — the stateful machine's first invariant —
    must raise.
    """
    objects, feature_sets = live_world(n_objects=20, n_features=30, seed=37)
    live = LiveDataset.build(
        objects, feature_sets, page_size=256, buffer_pages=8
    )
    live.check_consistency()  # sane before the sabotage
    monkeypatch.setattr(
        RTreeBase, "_replace_child_entry", lambda self, parent, child: None
    )
    with pytest.raises((IndexError_, DatasetError)):
        _mutate_a_lot(live)
        live.check_consistency()


def test_unpersisted_mutation_is_caught(monkeypatch):
    """A mutated node that never reaches its page trips coherence.

    ``write_node`` aliases the cached object with the one being mutated,
    so the dangerous direction is a *forgotten persist*: the in-memory
    tree looks right while the page keeps its pre-mutation image (lost
    on reopen, wrong after any eviction).  Sabotage ``write_node`` to
    refresh the cache but skip the page write for already-persisted
    nodes and assert the coherence invariant catches it.
    """
    objects, feature_sets = live_world(n_objects=20, n_features=30, seed=41)
    live = LiveDataset.build(
        objects, feature_sets, page_size=256, buffer_pages=64
    )
    # Populate the decoded-node caches with the pre-mutation tree.
    live.query(
        PreferenceQuery(3, 0.3, 0.5, (0xFF, 0xFF), Variant.RANGE)
    )
    assert_caches_coherent(live)  # sane before the sabotage

    real_write = RTreeBase.write_node

    def forgetful(self, node):
        if self._node_cache.peek(node.page_id) is not None:
            # Already persisted and cached: "forget" the page write.
            node.invalidate_arrays()
            self._node_cache.invalidate(node.page_id)
            self._node_cache.put(node)
        else:
            real_write(self, node)

    monkeypatch.setattr(RTreeBase, "write_node", forgetful)
    _mutate_a_lot(live)
    with pytest.raises(AssertionError):
        assert_caches_coherent(live)
