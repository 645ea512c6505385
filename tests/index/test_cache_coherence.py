"""Node-cache coherence under mutation, on every storage flavour.

One cache sits between a query and a page: the node cache, whose nodes
hold their page payload, the entry objects materialised from it and the
leaf arrays that view it.  A mutation must leave none of the three
serving a pre-mutation image.  These tests warm the cache (arrays
included) with traversals, then mutate — inserts that split, deletes
that condense — then check two ways:

* **structurally** — every node still held by the cache must carry the
  payload of its page read straight from the page file, its entries must
  equal a fresh decode, and a leaf's arrays must spell the same rows;
* **behaviourally** — a warm-cache traversal returns exactly what a
  cold reopen of the same storage returns, leaf for leaf.

A feature leaf additionally memoises, per ``(mask, λ)``, the sorted run
a query scored it into (``FeatureScorer.leaf_run``); ``TestLeafRunCoherence``
checks that the same query repeated after a rescore, move or delete that
lands in that leaf never streams from the old run.

Parametrized over ``MemoryPageFile`` and ``DiskPageFile``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.stream import FeatureStream
from repro.index.leafdata import object_leaf_arrays
from repro.index.nodes import FeatureLeafEntry, ObjectLeafEntry
from repro.index.object_rtree import ObjectRTree
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.storage.pagefile import DiskPageFile, MemoryPageFile
from repro.text.vocabulary import Vocabulary
from tests.conftest import (
    VOCAB_SIZE,
    make_data_objects,
    make_feature_objects,
    reopen_tree,
)

STORAGES = ("memory", "disk")


def _pagefile(kind: str, tmp_path, name: str, page_size: int = 256):
    if kind == "memory":
        return MemoryPageFile(page_size=page_size)
    return DiskPageFile(str(tmp_path / name), page_size=page_size)


def _leaf_arrays(tree, node):
    if isinstance(tree, ObjectRTree):
        return object_leaf_arrays(node)
    return tree.leaf_arrays(node)


def _array_rows(arrays) -> list[tuple]:
    """A leaf's arrays spelled as the field tuples of its entries."""
    xs, ys = arrays.xs.tolist(), arrays.ys.tolist()
    if hasattr(arrays, "oids"):
        return list(zip(arrays.oids.tolist(), xs, ys))
    masks = [int.from_bytes(row.tobytes(), "little") for row in arrays.masks]
    return list(zip(arrays.fids.tolist(), xs, ys, arrays.scores.tolist(), masks))


def _entry_rows(entries) -> list[tuple]:
    return [dataclasses.astuple(e) for e in entries]


def assert_node_cache_coherent(tree) -> None:
    """Cached nodes == fresh decodes of their persisted pages."""
    for page_id in tree.node_cache.page_ids():
        cached = tree.node_cache.peek(page_id)
        if cached is None:
            continue
        payload = tree.pagefile.read(page_id).payload
        fresh = tree.codec.decode(page_id, payload)
        assert cached.level == fresh.level, f"page {page_id}: stale level"
        assert cached.payload == payload, f"page {page_id}: stale payload"
        assert cached.entries == fresh.entries, (
            f"page {page_id}: node cache serves a pre-mutation image"
        )
        if cached.is_leaf:
            arrays = _leaf_arrays(tree, cached)
            assert _array_rows(arrays) == _entry_rows(fresh.entries), (
                f"page {page_id}: leaf arrays view pre-mutation bytes"
            )


def assert_cold_copy_reads_same_leaves(tree) -> None:
    """A cold reopen of the storage serves the rewritten leaves."""
    def rows(t) -> list[tuple]:
        out = []
        for leaf in t.iter_leaves():
            out += _array_rows(_leaf_arrays(t, leaf))
        return sorted(out)

    assert rows(tree) == rows(reopen_tree(tree.pagefile))


def _warm(tree) -> None:
    """Cache every node, and every leaf's arrays, ahead of a mutation."""
    for leaf in tree.iter_leaves():
        _leaf_arrays(tree, leaf)


@pytest.mark.parametrize("storage", STORAGES)
class TestObjectTreeCoherence:
    def test_mutations_never_serve_stale_nodes(self, storage, tmp_path):
        objects = make_data_objects(200, seed=95)
        pagefile = _pagefile(storage, tmp_path, "objects.tree")
        tree = ObjectRTree(pagefile, buffer_pages=64)
        for o in objects:
            tree.insert(ObjectLeafEntry(o.oid, o.x, o.y))
        rng = random.Random(6)
        alive = {o.oid: o for o in objects}
        next_id = 10_000
        for step in range(120):
            _warm(tree)  # traversal caches the pages the mutation rewrites
            if alive and rng.random() < 0.5:
                o = alive.pop(rng.choice(sorted(alive)))
                assert tree.delete(ObjectLeafEntry(o.oid, o.x, o.y))
            else:
                x, y = rng.random(), rng.random()
                tree.insert(ObjectLeafEntry(next_id, x, y))
                alive[next_id] = type(objects[0])(next_id, x, y)
                next_id += 1
            if step % 15 == 0:
                assert_node_cache_coherent(tree)
        assert_node_cache_coherent(tree)
        assert_cold_copy_reads_same_leaves(tree)
        got = sorted(e.oid for e in tree.range_search((0.5, 0.5), 2.0))
        assert got == sorted(alive)

    def test_warm_traversal_equals_cold_reopen(self, storage, tmp_path):
        if storage == "memory":
            pytest.skip("reopen-from-path needs a disk file")
        path = str(tmp_path / "reopen.tree")
        objects = make_data_objects(150, seed=96)
        tree = ObjectRTree(DiskPageFile(path, page_size=256), buffer_pages=64)
        for o in objects:
            tree.insert(ObjectLeafEntry(o.oid, o.x, o.y))
        _warm(tree)
        for o in objects[::3]:
            assert tree.delete(ObjectLeafEntry(o.oid, o.x, o.y))
        warm = sorted(e.oid for e in tree.range_search((0.5, 0.5), 2.0))
        tree.pagefile.flush()

        cold = reopen_tree(DiskPageFile(path, page_size=256))
        assert warm == sorted(
            e.oid for e in cold.range_search((0.5, 0.5), 2.0)
        )


@pytest.mark.parametrize("storage", STORAGES)
class TestFeatureTreeCoherence:
    def test_mutations_never_serve_stale_nodes(self, storage, tmp_path):
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        features = make_feature_objects(150, seed=97)
        tree = SRTIndex.build(
            FeatureDataset(features, vocab, "coh"),
            pagefile=_pagefile(storage, tmp_path, "features.tree"),
            buffer_pages=64,
        )
        rng = random.Random(7)
        survivors = [
            FeatureLeafEntry(f.fid, f.x, f.y, f.score, f.keyword_mask())
            for f in features
        ]
        for step in range(90):
            _warm(tree)
            if step % 3 == 2:  # inserts split the 6-entry leaves
                entry = FeatureLeafEntry(
                    10_000 + step, rng.random(), rng.random(), rng.random(),
                    rng.randrange(1, 1 << VOCAB_SIZE),
                )
                tree.insert(entry)
                survivors.append(entry)
            else:
                assert tree.delete(survivors.pop(rng.randrange(len(survivors))))
            if step % 10 == 0:
                assert_node_cache_coherent(tree)
        assert_node_cache_coherent(tree)
        assert_cold_copy_reads_same_leaves(tree)
        assert sorted(tree.iter_features(), key=lambda e: e.fid) == sorted(
            survivors, key=lambda e: e.fid
        )
        tree.validate()


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("op", ["rescore", "move", "delete"])
class TestLeafRunCoherence:
    MASK, LAM = 0b1011 << 4, 0.5

    def _stream(self, tree) -> list[tuple[int, float]]:
        """Drain the sorted stream: opens (and memoises a run in) every
        leaf that holds a relevant feature."""
        stream = FeatureStream(tree, self.MASK, self.LAM, emit_virtual=False)
        out = []
        while (feature := stream.next()) is not None:
            out.append((feature.fid, feature.score))
        return out

    def test_repeated_query_never_sees_the_old_run(self, storage, op, tmp_path):
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        features = make_feature_objects(150, seed=98)
        tree = SRTIndex.build(
            FeatureDataset(features, vocab, "runs"),
            pagefile=_pagefile(storage, tmp_path, "runs.tree"),
            buffer_pages=64,
        )
        entries = {
            f.fid: FeatureLeafEntry(f.fid, f.x, f.y, f.score, f.keyword_mask())
            for f in features
        }
        scorer = tree.make_scorer(self.MASK, self.LAM)
        rng = random.Random(8)
        for _ in range(12):
            before = self._stream(tree)
            assert self._stream(tree) == before  # now served from the memo
            # A victim the query scores, so its leaf holds a memoised run.
            old = entries[rng.choice(before)[0]]
            assert tree.delete(old)
            if op == "delete":
                del entries[old.fid]
            else:
                changed = (
                    {"score": round(1.0 - old.score, 3)}
                    if op == "rescore"
                    else {"x": rng.random(), "y": rng.random()}
                )
                entries[old.fid] = dataclasses.replace(old, **changed)
                tree.insert(entries[old.fid])
            after = self._stream(tree)
            assert sorted(after) == sorted(
                (e.fid, scorer.leaf_score(e))
                for e in entries.values()
                if scorer.leaf_relevant(e)
            )
            assert [score for _, score in after] == sorted(
                (score for _, score in after), reverse=True
            )
            # ids → locations come from the same leaf columns as the run.
            stream = FeatureStream(tree, self.MASK, self.LAM, emit_virtual=False)
            while (feature := stream.next()) is not None:
                entry = entries[feature.fid]
                assert (feature.x, feature.y) == (entry.x, entry.y)
        assert_node_cache_coherent(tree)
