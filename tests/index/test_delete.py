"""Tests for R-tree deletion (CondenseTree)."""

import json
import math
import random

import pytest

from repro.errors import StorageError
from repro.index.nodes import FeatureLeafEntry, ObjectLeafEntry
from repro.index.object_rtree import ObjectRTree
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset
from repro.storage.page import Page
from repro.storage.pagefile import MemoryPageFile
from repro.text.vocabulary import Vocabulary
from tests.conftest import (
    VOCAB_SIZE,
    make_data_objects,
    make_feature_objects,
    reopen_tree,
)


def entry_of(o):
    return ObjectLeafEntry(o.oid, o.x, o.y)


class TestObjectTreeDelete:
    def test_delete_then_query(self):
        objects = make_data_objects(300, seed=81)
        tree = ObjectRTree.build(objects, method="hilbert")
        victims = objects[::10]
        for o in victims:
            assert tree.delete(entry_of(o))
        tree.validate()
        remaining = {o.oid for o in objects} - {o.oid for o in victims}
        got = {e.oid for e in tree.range_search((0.5, 0.5), 2.0)}
        assert got == remaining

    def test_delete_missing_returns_false(self):
        objects = make_data_objects(50, seed=82)
        tree = ObjectRTree.build(objects)
        assert not tree.delete(ObjectLeafEntry(999, 0.123, 0.456))
        assert tree.count == 50

    def test_delete_everything(self):
        objects = make_data_objects(150, seed=83)
        tree = ObjectRTree.build(objects)
        order = list(objects)
        random.Random(1).shuffle(order)
        for o in order:
            assert tree.delete(entry_of(o))
            tree.validate()
        assert tree.count == 0
        assert list(tree.range_search((0.5, 0.5), 2.0)) == []

    def test_delete_from_empty(self):
        tree = ObjectRTree.build([])
        assert not tree.delete(ObjectLeafEntry(0, 0.5, 0.5))

    def test_underflow_triggers_reinsertion(self):
        """Tiny pages force multi-level trees; heavy deletion must shrink
        the tree while preserving the remaining entries."""
        objects = make_data_objects(250, seed=84)
        tree = ObjectRTree(MemoryPageFile(page_size=256))
        for o in objects:
            tree.insert(entry_of(o))
        start_height = tree.height
        assert start_height >= 3
        for o in objects[:230]:
            assert tree.delete(entry_of(o))
        tree.validate()
        assert tree.count == 20
        assert tree.height <= start_height
        got = sorted(e.oid for e in tree.range_search((0.5, 0.5), 2.0))
        assert got == [o.oid for o in objects[230:]]

    def test_interleaved_insert_delete(self):
        rng = random.Random(85)
        tree = ObjectRTree(MemoryPageFile(page_size=512))
        alive = {}
        next_id = 0
        for step in range(600):
            if alive and rng.random() < 0.45:
                oid = rng.choice(list(alive))
                x, y = alive.pop(oid)
                assert tree.delete(ObjectLeafEntry(oid, x, y))
            else:
                x, y = rng.random(), rng.random()
                alive[next_id] = (x, y)
                tree.insert(ObjectLeafEntry(next_id, x, y))
                next_id += 1
        tree.validate()
        got = sorted(e.oid for e in tree.range_search((0.5, 0.5), 2.0))
        assert got == sorted(alive)


class TestReopenAfterDelete:
    def test_meta_count_stays_exact_through_orphan_reinsertion(
        self, tmp_path
    ):
        """Regression: the orphan path must not persist a stale count.

        ``delete`` used to write the metadata page before reinserting
        the orphans of dissolved nodes, persisting a count that still
        included them — correct in memory, wrong on reopen.  Heavy
        deletion over tiny pages exercises the orphan path constantly;
        after every delete the *persisted* meta must agree with the
        in-memory tree.
        """
        from repro.index.rtree_base import RTreeBase
        from repro.storage.pagefile import DiskPageFile

        path = str(tmp_path / "orphans.tree")
        objects = make_data_objects(250, seed=88)
        tree = ObjectRTree(DiskPageFile(path, page_size=256))
        for o in objects:
            tree.insert(entry_of(o))
        start_height = tree.height

        order = list(objects)
        random.Random(2).shuffle(order)
        alive = {o.oid for o in objects}
        for o in order[:220]:
            assert tree.delete(entry_of(o))
            alive.remove(o.oid)
            meta = RTreeBase.read_meta(tree.pagefile)
            assert meta["count"] == tree.count == len(alive)
            assert meta["root"] == tree.root_id
            assert meta["height"] == tree.height
        assert tree.height < start_height  # condense actually ran
        tree.pagefile.flush()
        tree.pagefile.close()

        reopened = reopen_tree(DiskPageFile(path, page_size=256))
        assert reopened.count == len(alive)
        reopened.validate()
        got = {e.oid for e in reopened.range_search((0.5, 0.5), 2.0)}
        assert got == alive
        # The reopened file answers exactly what a fresh build over the
        # survivors answers.
        rebuilt = ObjectRTree.build([o for o in objects if o.oid in alive])
        for tree in (reopened, rebuilt):
            tree.clear_cache()
        answers = [
            sorted(tree.range_search((0.4, 0.6), 0.25), key=lambda e: e.oid)
            for tree in (reopened, rebuilt)
        ]
        assert answers[0] and answers[0] == answers[1]

        # A file whose meta page predates the layout field stores its
        # leaves as rows; it is refused, not misread as columns.
        pagefile = reopened.pagefile
        meta = json.loads(pagefile.read(0).payload)
        assert meta.pop("layout") == 2
        pagefile.write(Page(0, json.dumps(meta).encode()))
        with pytest.raises(StorageError, match="leaf layout 1; rebuild"):
            reopen_tree(pagefile)
        pagefile.close()


class TestFeatureTreeDelete:
    def test_aggregates_stay_consistent(self):
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        dataset = FeatureDataset(
            make_feature_objects(200, seed=86), vocab, "del"
        )
        tree = SRTIndex.build(dataset, pagefile=MemoryPageFile(page_size=512))
        for f in list(dataset)[:120]:
            entry = FeatureLeafEntry(f.fid, f.x, f.y, f.score, f.keyword_mask())
            assert tree.delete(entry)
        # validate() recomputes aggregates; stale max-score/summary fails.
        tree.validate()
        assert tree.count == 80

    def test_query_correct_after_delete(self):
        vocab = Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))
        features = make_feature_objects(150, seed=87)
        dataset = FeatureDataset(features, vocab, "del2")
        tree = SRTIndex.build(dataset)
        kept = features[50:]
        for f in features[:50]:
            tree.delete(
                FeatureLeafEntry(f.fid, f.x, f.y, f.score, f.keyword_mask())
            )

        from repro.core.query import PreferenceQuery
        from repro.core.stds import compute_score
        from repro.core.bruteforce import component_score

        query = PreferenceQuery(
            k=3, radius=0.2, lam=0.5, keyword_masks=(0b111,)
        )
        kept_ds = FeatureDataset(kept, vocab, "kept")
        for point in [(0.3, 0.3), (0.8, 0.2)]:
            got = compute_score(tree, query, 0b111, point)
            want = component_score(point[0], point[1], kept_ds, 0b111, query)
            assert got == pytest.approx(want, abs=1e-9)
