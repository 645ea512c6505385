"""Unit tests for the live-update layer (:mod:`repro.live`).

The oracle and stateful suites prove end-to-end correctness; this file
pins the surface: validation errors, declarative mutation dispatch,
mirror/snapshot semantics and metrics.
"""

from __future__ import annotations

import pytest

from repro.core.query import PreferenceQuery, Variant
from repro.errors import DatasetError
from repro.live import (
    LIVE_METRIC_FAMILIES,
    MUTATION_OPS,
    LiveDataset,
    Mutation,
    feature_entry,
    object_entry,
)
from repro.live.dataset import live_mutations_metric
from repro.model.objects import DataObject, FeatureObject
from repro.obs.metrics import registry

from tests.live.conftest import live_world

QUERY = PreferenceQuery(3, 0.35, 0.5, (0xFFFF, 0xFFFF), Variant.RANGE)


def small_live(**kwargs) -> LiveDataset:
    objects, feature_sets = live_world(n_objects=30, n_features=24, seed=5)
    kwargs.setdefault("page_size", 512)
    kwargs.setdefault("buffer_pages", 32)
    return LiveDataset.build(objects, feature_sets, **kwargs)


@pytest.fixture()
def live() -> LiveDataset:
    return small_live()


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_ctor_rejects_feature_set_count_mismatch(self, live):
        objects = live.objects_snapshot()
        sets = live.feature_snapshots()
        with pytest.raises(DatasetError, match="feature trees"):
            LiveDataset(live.processor, objects, sets[:1])

    def test_set_id_out_of_range(self, live):
        feature = FeatureObject(777, 0.5, 0.5, 0.5, frozenset({1}))
        with pytest.raises(DatasetError, match="out of range"):
            live.insert_feature(9, feature)
        with pytest.raises(DatasetError, match="out of range"):
            live.feature_ids(-1)
        with pytest.raises(DatasetError, match="out of range"):
            live.n_features(2)

    def test_duplicate_feature_id(self, live):
        fid = live.feature_ids(0)[0]
        clone = FeatureObject(fid, 0.5, 0.5, 0.5, frozenset({1}))
        with pytest.raises(DatasetError, match="already present"):
            live.insert_feature(0, clone)

    def test_keywords_must_fit_vocabulary(self, live):
        feature = FeatureObject(778, 0.5, 0.5, 0.5, frozenset({999}))
        with pytest.raises(DatasetError, match="outside the"):
            live.insert_feature(0, feature)

    def test_unknown_feature_id(self, live):
        with pytest.raises(DatasetError, match="unknown feature id"):
            live.delete_feature(0, 424242)
        with pytest.raises(DatasetError, match="unknown feature id"):
            live.move_feature(0, 424242, 0.1, 0.1)
        with pytest.raises(DatasetError, match="unknown feature id"):
            live.rescore_feature(0, 424242, 0.9)
        with pytest.raises(DatasetError, match="unknown feature id"):
            live.get_feature(1, 424242)

    def test_unknown_and_duplicate_object_id(self, live):
        with pytest.raises(DatasetError, match="unknown data object"):
            live.delete_object(424242)
        with pytest.raises(DatasetError, match="unknown data object"):
            live.get_object(424242)
        oid = live.object_ids()[0]
        with pytest.raises(DatasetError, match="already present"):
            live.insert_object(DataObject(oid, 0.5, 0.5))


# ----------------------------------------------------------------------
# mutations, mirror, snapshots
# ----------------------------------------------------------------------
class TestMutations:
    def test_insert_feature_is_queryable_and_mirrored(self, live):
        before = live.n_features(0)
        feature = FeatureObject(900, 0.42, 0.42, 0.9, frozenset({1, 2}))
        live.insert_feature(0, feature)
        assert live.n_features(0) == before + 1
        assert live.get_feature(0, 900) == feature
        assert 900 in live.feature_ids(0)
        snapshot = live.feature_snapshots()[0]
        assert feature in list(snapshot)
        live.check_consistency()

    def test_delete_feature_returns_removed(self, live):
        fid = live.feature_ids(1)[0]
        removed = live.delete_feature(1, fid)
        assert removed.fid == fid
        assert fid not in live.feature_ids(1)
        live.check_consistency()

    def test_move_and_rescore_return_updated(self, live):
        fid = live.feature_ids(0)[0]
        moved = live.move_feature(0, fid, 0.111, 0.222)
        assert (moved.x, moved.y) == (0.111, 0.222)
        rescored = live.rescore_feature(0, fid, 0.987)
        assert rescored.score == 0.987
        assert live.get_feature(0, fid) == rescored
        live.check_consistency()

    def test_object_insert_delete_roundtrip(self, live):
        n = live.n_objects
        live.insert_object(DataObject(901, 0.3, 0.3))
        assert live.n_objects == n + 1
        assert live.get_object(901) == DataObject(901, 0.3, 0.3)
        removed = live.delete_object(901)
        assert removed.oid == 901
        assert live.n_objects == n
        live.check_consistency()

    def test_version_bumps_once_per_mutation(self, live):
        v0 = live.version
        live.insert_object(DataObject(902, 0.4, 0.4))
        live.rescore_feature(0, live.feature_ids(0)[0], 0.5)
        assert live.version == v0 + 2

    def test_snapshots_are_sorted_by_id(self, live):
        live.insert_object(DataObject(903, 0.2, 0.9))
        oids = [o.oid for o in live.objects_snapshot()]
        assert oids == sorted(oids)
        for snapshot in live.feature_snapshots():
            fids = [f.fid for f in snapshot]
            assert fids == sorted(fids)

    def test_apply_dispatches_every_op(self, live):
        fid = live.feature_ids(0)[0]
        oid = live.object_ids()[0]
        events = [
            Mutation(
                "insert_feature",
                feature=FeatureObject(910, 0.6, 0.6, 0.7, frozenset({3})),
            ),
            Mutation("move_feature", fid=910, x=0.65, y=0.65),
            Mutation("rescore_feature", fid=910, score=0.1),
            Mutation("delete_feature", set_id=0, fid=fid),
            Mutation("insert_object", obj=DataObject(911, 0.7, 0.7)),
            Mutation("delete_object", oid=oid),
        ]
        assert {e.op for e in events} == set(MUTATION_OPS)
        since = live.version
        for event in events:
            live.apply(event)
        deltas = live.deltas(since)
        assert [d[:3] for d in deltas] == [
            ("feature", "insert", 0), ("feature", "move", 0),
            ("feature", "rescore", 0), ("feature", "delete", 0),
            ("object", "insert", None), ("object", "delete", None),
        ]
        assert [(d[3] is None, d[4] is None) for d in deltas] == [
            (True, False), (False, False), (False, False),
            (False, True), (True, False), (False, True),
        ]
        assert fid not in live.feature_ids(0)
        assert live.get_feature(0, 910).score == 0.1
        assert oid not in live.object_ids()
        live.check_consistency()

    def test_apply_rejects_unknown_op(self, live):
        with pytest.raises(DatasetError, match="unknown mutation op"):
            live.apply(Mutation("truncate_everything"))

    def test_entry_constructors_match_tree_contents(self):
        feature = FeatureObject(1, 0.1, 0.2, 0.3, frozenset({0, 2}))
        entry = feature_entry(feature)
        assert (entry.fid, entry.x, entry.y, entry.score) == (1, 0.1, 0.2, 0.3)
        assert entry.mask == feature.keyword_mask()
        obj = DataObject(2, 0.4, 0.5)
        assert object_entry(obj) == object_entry(DataObject(2, 0.4, 0.5))

    def test_mutation_metrics_count_by_target_and_op(self, live):
        registry().reset(LIVE_METRIC_FAMILIES)
        live.insert_object(DataObject(920, 0.5, 0.1))
        live.delete_object(920)
        live.rescore_feature(1, live.feature_ids(1)[0], 0.4)
        counter = live_mutations_metric()
        assert counter.labels(target="object", op="insert").value == 1
        assert counter.labels(target="object", op="delete").value == 1
        assert counter.labels(target="feature", op="rescore").value == 1

    def test_divergence_is_reported_not_masked(self, live):
        fid = live.feature_ids(0)[0]
        feature = live.get_feature(0, fid)
        # Sabotage: remove the entry behind the live layer's back.
        assert live.processor.feature_trees[0].delete(feature_entry(feature))
        with pytest.raises(DatasetError, match="divergence"):
            live.delete_feature(0, fid)
        oid = live.object_ids()[0]
        obj = live.get_object(oid)
        assert live.processor.object_tree.delete(object_entry(obj))
        with pytest.raises(DatasetError, match="divergence"):
            live.delete_object(oid)

    def test_check_consistency_catches_count_mismatch(self, live):
        live.processor.object_tree.insert(object_entry(DataObject(930, 0.5, 0.5)))
        with pytest.raises(DatasetError, match="mirror has"):
            live.check_consistency()

    def test_query_explain_and_clear_pass_through(self, live):
        result = live.query(QUERY)
        assert result.items
        plan = live.explain(QUERY)
        assert plan is not None
        dropped = live.clear_buffers()
        assert dropped  # at least one tree had cached state
