"""The sibling pass: a level-1 node's cached leaves scored in one pass.

When a feature stream opens a level-1 node whose leaves are all in the
node cache, ``FeatureTree.score_leaves`` scores them together over the
node's cached :class:`~repro.index.leafdata.SiblingBlock` and memoises
each leaf's run.  These tests hold it to four things:

* its runs are the ones ``FeatureScorer.leaf_run`` builds leaf by leaf,
  bit for bit (scores, rows, tie order), on SRT and IR² trees with one-
  word and byte-wide masks, empty runs and partly filled memos;
* it changes no work a query counts — pulls, combinations, node visits,
  node-cache hits and misses, page reads — and no answer;
* it fires only when every child is resident, and reads, counts and
  reorders nothing in the cache;
* its block is rebuilt whenever a child's arrays change, so a query
  after live inserts, deletes and splits still equals brute force.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.core.stream import FeatureStream
from repro.index.feature_tree import FeatureScorer, FeatureTree
from repro.index.ir2 import IR2Tree
from repro.index.leafdata import SiblingBlock
from repro.index.srt import SRTIndex
from repro.live.dataset import LiveDataset
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import FeatureObject
from repro.storage.pagefile import MemoryPageFile
from repro.text.vocabulary import Vocabulary
from tests.conftest import make_data_objects

KINDS = {"srt": SRTIndex, "ir2": IR2Tree}
#: 64 terms pack into one 8-byte word a row, 130 into 17 single bytes.
VOCABS = (64, 130)


def _features(n: int, vocab: int, seed: int) -> list[FeatureObject]:
    """Coarse scores (many ties) and keywords drawn from a few clusters,
    so some leaves share no term with a query."""
    rng = random.Random(seed)
    clusters = [rng.sample(range(vocab), 6) for _ in range(5)]
    return [
        FeatureObject(
            fid, rng.random(), rng.random(), rng.choice((0.2, 0.5, 0.8)),
            frozenset(rng.sample(rng.choice(clusters), rng.randint(1, 3))),
        )
        for fid in range(n)
    ]


@functools.lru_cache(maxsize=None)
def _tree(kind: str, vocab: int) -> FeatureTree:
    dataset = FeatureDataset(
        _features(900, vocab, seed=vocab),
        Vocabulary(f"kw{i}" for i in range(vocab)),
        kind,
    )
    return KINDS[kind].build(dataset, MemoryPageFile(page_size=1024))


def _level1_nodes(tree: FeatureTree) -> list:
    """Every level-1 node, children read (so resident) as a side effect."""
    found, stack = [], [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        if node.level == 1:
            found.append(node)
        if not node.is_leaf:
            stack.extend(e.child for e in node.entries)
    return found


def _leaf_arrays(tree, node) -> list:
    return [tree.leaf_arrays(tree.read_node(e.child)) for e in node.entries]


def _plain(run) -> tuple[list, list]:
    return run.neg_scores, run.rows.tolist()


class TestRunsEqualLeafRuns:
    @pytest.mark.parametrize("vocab", VOCABS)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        terms=st.sets(st.integers(0, 129), min_size=1, max_size=4),
        lam=st.sampled_from((0.0, 0.3, 0.5, 1.0)),
        prefill=st.integers(0, 2 ** 16 - 1),
    )
    def test_every_run_is_the_leaf_run(self, kind, vocab, terms, lam, prefill):
        tree = _tree(kind, vocab)
        mask = sum(1 << (t % vocab) for t in terms)
        nodes = _level1_nodes(tree)
        assert len(nodes) > 1 and all(len(n.entries) > 2 for n in nodes)
        for node in nodes:
            parts = _leaf_arrays(tree, node)
            for arrays in parts:
                arrays.memo.clear()
            reference = tree.make_scorer(mask, lam)
            expected = [_plain(reference.leaf_run(a)) for a in parts]
            # A memo that already holds the run is left alone: some leaves
            # keep the reference's own run object.
            kept = {}
            for i, arrays in enumerate(parts):
                if prefill >> (i % 16) & 1:
                    kept[i] = arrays.memo[(mask, lam)]
                else:
                    arrays.memo.clear()
            tree.score_leaves(node, tree.make_scorer(mask, lam))
            for i, arrays in enumerate(parts):
                run = arrays.memo[(mask, lam)]
                assert _plain(run) == expected[i]
                assert run.fids is arrays.fids and run.xs is arrays.xs
                if i in kept:
                    assert run is kept[i]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_ties_and_empty_runs_are_exercised(self, kind):
        """The data above does hold what the property is meant to cover."""
        tree = _tree(kind, 64)
        node = _level1_nodes(tree)[0]
        parts = _leaf_arrays(tree, node)
        rng = random.Random(5)
        ties = empties = 0
        for _ in range(20):
            mask = sum(1 << t for t in rng.sample(range(64), 2))
            for arrays in parts:
                arrays.memo.clear()
            tree.score_leaves(node, tree.make_scorer(mask, 0.5))
            for arrays in parts:
                neg = arrays.memo[(mask, 0.5)].neg_scores
                empties += not neg
                ties += len(neg) - len(set(neg))
        assert ties > 20 and empties > 20

    def test_full_memo_is_wiped_as_leaf_run_wipes_it(self, monkeypatch):
        from repro.index import feature_tree

        monkeypatch.setattr(feature_tree, "SCORE_MEMO_CAP", 2)
        tree = _tree("srt", 64)
        node = _level1_nodes(tree)[0]
        parts = _leaf_arrays(tree, node)
        for arrays in parts:
            arrays.memo.clear()
        for mask in (0b1, 0b10, 0b100):
            tree.score_leaves(node, tree.make_scorer(mask, 0.5))
        assert all(list(a.memo) == [(0b100, 0.5)] for a in parts)


def _world(vocab: int = 64, seed: int = 3):
    objects = ObjectDataset(make_data_objects(300, seed=seed))
    words = Vocabulary(f"kw{i}" for i in range(vocab))
    feature_sets = [
        FeatureDataset(_features(700, vocab, seed=seed + i), words, f"F{i}")
        for i in range(2)
    ]
    return objects, feature_sets


def _queries(n: int, vocab: int = 64, seed: int = 9) -> list[PreferenceQuery]:
    rng = random.Random(seed)
    return [
        PreferenceQuery(
            rng.randint(1, 8), rng.uniform(0.02, 0.1),
            rng.choice((0.2, 0.5, 0.8)),
            tuple(
                sum(1 << t for t in rng.sample(range(vocab), 3))
                for _ in range(2)
            ),
        )
        for _ in range(n)
    ]


def _work(result) -> tuple:
    """The answer and every count the pass must leave as it is."""
    s = result.stats
    return (
        [(i.oid, i.score) for i in result.items],
        s.combinations, s.rejected_2r, s.objects_scored, s.io_reads,
        s.buffer_hits, s.node_cache_hits, s.node_cache_misses,
        [
            (f.features_pulled, f.nodes_visited, f.nodes_pruned,
             f.entries_pruned, f.pull_rounds)
            for f in s.feature_sets
        ],
    )


class TestNoWorkMoves:
    @pytest.mark.parametrize("buffer_pages", (256, 12))
    @pytest.mark.parametrize("index", ("srt", "ir2"))
    def test_counts_equal_the_pass_free_path(
        self, monkeypatch, index, buffer_pages
    ):
        objects, feature_sets = _world()
        kwargs = dict(index=index, page_size=1024, buffer_pages=buffer_pages)
        plain = QueryProcessor.build(objects, feature_sets, **kwargs)
        passing = QueryProcessor.build(objects, feature_sets, **kwargs)
        fired = []
        sibling_runs = FeatureScorer.sibling_runs
        monkeypatch.setattr(
            FeatureScorer, "sibling_runs",
            lambda self, block: fired.append(1) or sibling_runs(self, block),
        )
        queries = _queries(30)
        # Every query twice: the repeat finds its runs memoised.
        for query in queries + queries:
            with monkeypatch.context() as off:
                off.setattr(FeatureTree, "score_leaves", lambda *a: None)
                expected = _work(plain.query(query, algorithm="stps"))
            assert _work(passing.query(query, algorithm="stps")) == expected
        if buffer_pages == 256:
            assert fired


class TestResidency:
    def _warm(self):
        tree = SRTIndex.build(
            FeatureDataset(
                _features(600, 64, seed=21),
                Vocabulary(f"kw{i}" for i in range(64)), "F",
            ),
            MemoryPageFile(page_size=1024),
        )
        return tree, _level1_nodes(tree)

    def test_one_evicted_child_means_no_pass(self, monkeypatch):
        tree, nodes = self._warm()
        calls = []
        monkeypatch.setattr(
            FeatureScorer, "sibling_runs",
            lambda self, block: calls.append(block),
        )
        for node in nodes:
            tree.node_cache.invalidate(node.entries[-1].child)
        stream = FeatureStream(tree, 0b111, 0.5, emit_virtual=False)
        while stream.next() is not None:
            pass
        assert stream.stats.nodes_visited > len(nodes)
        assert calls == []

    def test_the_pass_reads_counts_and_reorders_nothing(self):
        tree, nodes = self._warm()
        cache = tree.node_cache
        before = (
            cache.hits, cache.misses, cache.page_ids(),
            tree.stats.snapshot(),
        )
        for node in nodes:
            tree.score_leaves(node, tree.make_scorer(0b1011, 0.5))
        assert all(isinstance(n._leaf_arrays, SiblingBlock) for n in nodes)
        assert (
            cache.hits, cache.misses, cache.page_ids(),
            tree.stats.snapshot(),
        ) == before

    def test_a_reread_child_gets_a_rebuilt_block(self):
        """A child evicted and read again has new arrays: the next query
        the pass scores rebuilds the block over them, and the new arrays
        get its run."""
        tree, nodes = self._warm()
        node = nodes[0]
        tree.score_leaves(node, tree.make_scorer(0b1, 0.5))
        old = node._leaf_arrays
        child = node.entries[0].child
        tree.node_cache.invalidate(child)
        fresh = tree.leaf_arrays(tree.read_node(child))
        assert fresh is not old.parts[0]
        tree.score_leaves(node, tree.make_scorer(0b10, 0.5))
        block = node._leaf_arrays
        assert block is not old and block.parts[0] is fresh
        assert (0b10, 0.5) in fresh.memo
        # Unchanged children: the block is reused, not rebuilt.
        tree.score_leaves(node, tree.make_scorer(0b100, 0.5))
        assert node._leaf_arrays is block


class TestLiveMutation:
    def test_inserts_deletes_and_splits_under_a_level1_node(self):
        objects, feature_sets = _world(seed=5)
        live = LiveDataset.build(objects, feature_sets, page_size=1024)
        tree = live.processor.feature_trees[0]
        queries = _queries(12, seed=13)
        for query in queries:
            live.query(query, algorithm="stps")
        node = _level1_nodes(tree)[0]
        old_block = node._leaf_arrays
        assert isinstance(old_block, SiblingBlock)
        old_children = [e.child for e in node.entries]

        # Crowd the node's first leaf until it splits, then delete from
        # its siblings: every write goes under this level-1 node.
        leaf = tree.read_node(old_children[0])
        x, y = leaf.entries[0].x, leaf.entries[0].y
        rng = random.Random(17)
        next_fid = 10_000
        for _ in range(tree.leaf_fanout + 2):
            live.insert_feature(0, FeatureObject(
                next_fid, x + rng.uniform(-1e-4, 1e-4),
                y + rng.uniform(-1e-4, 1e-4), rng.choice((0.2, 0.5, 0.8)),
                frozenset(rng.sample(range(64), 2)),
            ))
            next_fid += 1
        for child in old_children[1:3]:
            for entry in list(tree.read_node(child).entries)[:3]:
                live.delete_feature(0, entry.fid)

        node = tree.read_node(node.page_id)
        assert [e.child for e in node.entries] != old_children  # split
        for query in queries:
            got = live.query(query, algorithm="stps")
            expected = brute_force(
                live.objects_snapshot(), live.feature_snapshots(), query
            )
            assert [i.oid for i in got.items] == [
                i.oid for i in expected.items
            ]
            assert [i.score for i in got.items] == pytest.approx(
                [i.score for i in expected.items], abs=1e-9
            )
        block = node._leaf_arrays
        assert isinstance(block, SiblingBlock) and block is not old_block
        assert all(
            part is arrays
            for part, arrays in zip(block.parts, _leaf_arrays(tree, node))
        )
        assert len(block.parts) == len(node.entries)
