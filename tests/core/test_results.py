"""Tests for result containers and stats tracking."""

import dataclasses

import pytest

from repro.core.results import (
    QueryResult,
    QueryStats,
    ResultItem,
    StatsTracker,
    rank_items,
)
from repro.obs.explain import BoundSummary, FeatureSetDiag, PlanDetail, ShardDiag
from repro.storage.page import Page
from repro.storage.pagefile import MemoryPageFile


class TestRankItems:
    def test_orders_by_score_then_oid(self):
        items = rank_items(
            [(0.5, 2, 0, 0), (0.9, 7, 0, 0), (0.5, 1, 0, 0)], k=3
        )
        assert [(i.oid, i.score) for i in items] == [
            (7, 0.9),
            (1, 0.5),
            (2, 0.5),
        ]

    def test_truncates_to_k(self):
        items = rank_items([(s / 10, s, 0, 0) for s in range(10)], k=3)
        assert len(items) == 3
        assert items[0].score == pytest.approx(0.9)

    def test_empty(self):
        assert rank_items([], k=5) == []


class TestQueryResult:
    def test_accessors(self):
        result = QueryResult(
            [ResultItem(3, 0.9, 0.1, 0.2), ResultItem(5, 0.7, 0.3, 0.4)]
        )
        assert result.scores == [0.9, 0.7]
        assert result.oids == [3, 5]
        assert len(result) == 2


class TestQueryStats:
    def test_total_time_combines_cpu_and_io(self):
        stats = QueryStats(wall_s=0.5, io_time_s=1.5)
        assert stats.total_time_s == pytest.approx(2.0)
        assert stats.cpu_time_s == pytest.approx(0.5)


def _filled(cls, base: int, **fixed):
    """An instance with every numeric field set to a distinct value."""
    obj = cls(**fixed)
    for n, f in enumerate(dataclasses.fields(cls)):
        if f.name not in fixed and f.type in ("int", "float"):
            setattr(obj, f.name, type(getattr(obj, f.name))(base + n))
    return obj


class TestMerge:
    """``QueryStats.merge`` is the one hand-written fold: a field added
    without a rule must fail here, not vanish from sharded totals."""

    #: Fields that describe one execution and are not folded.
    PER_EXECUTION = {"trace_id", "detail"}

    def _pair(self):
        a = _filled(QueryStats, 100, trace_id="a", detail=PlanDetail())
        b = _filled(QueryStats, 1000, trace_id="b", detail=PlanDetail())
        a.feature_sets = [_filled(FeatureSetDiag, 10, set_id=0)]
        b.feature_sets = [
            _filled(FeatureSetDiag, 20, set_id=0),
            _filled(FeatureSetDiag, 30, set_id=1),
        ]
        a.feature_sets[0].pruned_bounds = BoundSummary()
        a.feature_sets[0].pruned_bounds.add(0.25)
        b.feature_sets[0].pruned_bounds = BoundSummary()
        b.feature_sets[0].pruned_bounds.add(0.75)
        a.shards = [ShardDiag(2, "executed", 0.9, 0.1)]
        b.shards = [ShardDiag(0, "pruned", 0.2, 0.5)]
        a.phase_times = {"p": 1.0, "q": 2.0}
        b.phase_times = {"q": 4.0, "r": 8.0}
        b.detail.trajectory.append((1, 0, 0.5, 0.4))
        return a, b

    def test_every_field_has_a_merge_rule(self):
        a, b = self._pair()
        before = {
            f.name: getattr(a, f.name) for f in dataclasses.fields(a)
            if f.type in ("int", "float")
        }
        set0 = dataclasses.replace(a.feature_sets[0], pruned_bounds=None)
        a.merge(b)
        for f in dataclasses.fields(QueryStats):
            mine, theirs = getattr(a, f.name), getattr(b, f.name)
            if f.name == "threshold_final":
                assert mine == max(before[f.name], theirs)
            elif f.name in before:
                assert before[f.name] and theirs, f.name  # both non-zero
                assert mine == before[f.name] + theirs, f.name
            elif f.name == "feature_sets":
                assert [d.set_id for d in mine] == [0, 1]
                for g in dataclasses.fields(FeatureSetDiag):
                    if g.type == "int" and g.name != "set_id":
                        assert getattr(mine[0], g.name) == getattr(
                            set0, g.name
                        ) + getattr(theirs[0], g.name), g.name
                        assert getattr(mine[1], g.name) == getattr(
                            theirs[1], g.name
                        ), g.name
                    else:
                        assert g.name in ("set_id", "pruned_bounds"), g.name
                bounds = mine[0].pruned_bounds
                assert (bounds.count, bounds.min, bounds.max) == (2, 0.25, 0.75)
                assert mine[1] is not theirs[1]  # merged into a copy
            elif f.name == "shards":
                assert [s.shard_id for s in mine] == [2, 0]  # mine, then theirs
            elif f.name == "phase_times":
                assert mine == {"p": 1.0, "q": 6.0, "r": 8.0}
            else:
                assert f.name in self.PER_EXECUTION, (
                    f"QueryStats.{f.name} has no merge rule"
                )
        assert a.trace_id == "a"
        assert a.detail.trajectory == []  # series stay per execution

    def test_derived_totals_follow_the_per_set_records(self):
        a, b = self._pair()
        a.merge(b)
        assert a.features_pulled == sum(
            d.features_pulled for d in a.feature_sets
        )
        assert a.nodes_expanded == sum(d.nodes_visited for d in a.feature_sets)
        assert a.heap_pops == sum(d.heap_pops for d in a.feature_sets)
        with pytest.raises(AttributeError):
            a.nodes_expanded = 1  # a view, not a second count


class TestStatsTracker:
    def test_tracks_multiple_pagefiles(self):
        pfs = [MemoryPageFile(128) for _ in range(2)]
        for pf in pfs:
            pid = pf.allocate()
            pf.write(Page(pid, b"x"))
        tracker = StatsTracker(pfs)
        pfs[0].read(0)
        pfs[1].read(0)
        pfs[1].read(0)
        stats = tracker.finish(QueryStats())
        assert stats.io_reads == 3
        assert stats.wall_s > 0
        assert stats.io_time_s == pytest.approx(
            3 * pfs[0].stats.page_read_cost_s
        )

    def test_ignores_activity_before_construction(self):
        pf = MemoryPageFile(128)
        pid = pf.allocate()
        pf.write(Page(pid, b"x"))
        pf.read(pid)  # before tracking
        tracker = StatsTracker([pf])
        stats = tracker.finish(QueryStats())
        assert stats.io_reads == 0

    def test_sub_phase_attribution(self):
        pf = MemoryPageFile(128)
        pid = pf.allocate()
        pf.write(Page(pid, b"x"))
        tracker = StatsTracker([pf])
        pf.read(pid)
        snap = tracker.io_snapshot()
        pf.read(pid)
        pf.read(pid)
        reads, io_time = tracker.io_since(snap)
        assert reads == 2
        assert io_time == pytest.approx(2 * pf.stats.page_read_cost_s)
