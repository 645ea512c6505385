"""Tests for repro.obs.explain: plans as views of QueryStats, EXPLAIN end-to-end."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryStats
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.obs import explain
from repro.obs.explain import (
    MAX_BOUND_SAMPLES,
    MAX_TRAJECTORY,
    BoundSummary,
    PlanDetail,
    QueryPlan,
    ShardDiag,
)
from repro.shard import ShardedQueryProcessor

QUERY = PreferenceQuery(5, 0.05, 0.5, (0b1, 0b1))


def _plan(stats: QueryStats, algorithm: str = "stps") -> QueryPlan:
    return QueryPlan.from_stats(QUERY, algorithm, stats)


class TestBoundSummary:
    def test_tracks_count_min_max_sample(self):
        s = BoundSummary()
        for v in (0.5, 0.2, 0.9):
            s.add(v)
        assert s.count == 3
        assert s.min == 0.2
        assert s.max == 0.9
        assert s.sample == [0.5, 0.2, 0.9]

    def test_sample_capped(self):
        s = BoundSummary()
        for i in range(MAX_BOUND_SAMPLES + 10):
            s.add(float(i))
        assert len(s.sample) == MAX_BOUND_SAMPLES
        assert s.count == MAX_BOUND_SAMPLES + 10

    def test_empty_to_dict(self):
        assert BoundSummary().to_dict() == {"count": 0}

    def test_merge(self):
        a, b = BoundSummary(), BoundSummary()
        a.add(0.5)
        b.add(0.1)
        b.add(0.9)
        a.merge(b)
        assert (a.count, a.min, a.max) == (3, 0.1, 0.9)
        a.merge(BoundSummary())  # merging empty is a no-op
        assert a.count == 3


class TestCollector:
    """The accumulator is ``QueryStats``; the plan is read off it."""

    def test_feature_set_anatomy(self):
        stats = QueryStats(detail=PlanDetail())
        stats.feature_set(1).features_pulled += 1
        d0 = stats.feature_set(0)
        d0.nodes_visited += 1
        d0.nodes_pruned += 2  # one text prune, one bound prune
        d0.pruned_bounds.add(0.4)
        d0.entries_pruned += 7
        plan = _plan(stats)
        assert [d.set_id for d in plan.feature_sets] == [0, 1]
        d0 = plan.feature_sets[0]
        assert (d0.nodes_visited, d0.nodes_pruned, d0.entries_pruned) == (
            1, 2, 7,
        )
        assert d0.pruned_bounds.count == 1  # only the bound-carrying prune
        assert plan.feature_sets[1].features_pulled == 1
        # Without plan detail the bounds are not summarised at all.
        plain = QueryStats().feature_set(0)
        assert plain.pruned_bounds is None
        assert plain.to_dict()["pruned_bounds"] == {"count": 0}

    def test_pull_trajectory_capped(self):
        # Tiny radius, k = every object: STPS drains both streams.
        objects = synthetic_objects(60, seed=7)
        feature_sets = synthetic_feature_sets(2, 400, 4, seed=8)
        processor = QueryProcessor.build(objects, feature_sets)
        query = PreferenceQuery(60, 1e-4, 0.5, (0b1111, 0b1111))
        report = processor.explain(query)
        cd = report.plan.combinations
        assert cd.pull_rounds > MAX_TRAJECTORY
        assert cd.pull_rounds == sum(
            d.pull_rounds for d in report.plan.feature_sets
        )
        assert len(cd.trajectory) == MAX_TRAJECTORY
        assert [point[0] for point in cd.trajectory[:3]] == [1, 2, 3]
        assert cd.to_dict()["trajectory_truncated"] is True

    def test_combination_accept_reject(self):
        stats = QueryStats(combinations=1, rejected_2r=1, retrievals_skipped=1)
        cd = _plan(stats).combinations
        assert (cd.released, cd.rejected_2r, cd.retrievals_skipped) == (
            1, 1, 1,
        )
        assert _plan(QueryStats()).combinations is None  # nothing counted

    def test_shard_verdicts_sorted_and_counted(self):
        objects = synthetic_objects(240, seed=31)
        feature_sets = synthetic_feature_sets(2, 150, 32, seed=32)
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as sharded:
            query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
            plan = sharded.explain(query).plan
        assert [s.shard_id for s in plan.shards] == [0, 1, 2]
        assert sum(plan.shard_outcomes().values()) == 3
        stats = QueryStats()
        stats.shards += [
            ShardDiag(0, "executed", 0.9, 0.5),
            ShardDiag(1, "failed", 0.7, 0.5, error="boom"),
            ShardDiag(2, "pruned", 0.3, 0.5),
        ]
        plan = _plan(stats, "sharded/stps")
        assert plan.shard_outcomes() == {
            "executed": 1, "failed": 1, "pruned": 1,
        }
        assert plan.to_dict()["shards"][1]["error"] == "boom"

    def test_executed_shard_merges_sub_plan(self):
        stats = QueryStats(detail=PlanDetail())
        sub = QueryStats(combinations=1, rejected_2r=1, detail=PlanDetail())
        sub.feature_set(0).features_pulled += 1
        sub.feature_set(1).features_pulled += 1
        stats.shards.append(
            ShardDiag(0, "executed", 1.0, -math.inf, stats=sub)
        )
        stats.merge(sub)
        plan = _plan(stats, "sharded/stps")
        assert plan.features_pulled_total == 2
        assert plan.combinations.released == 1
        assert plan.combinations.rejected_2r == 1
        # The embedded sub-plan is the shard's own execution, unsummed.
        embedded = plan.shards[0].plan
        assert embedded["algorithm"] == "stps"
        assert embedded["feature_sets"][0]["features_pulled"] == 1
        assert stats.shards[0].plan is None  # the view copies, not edits

    def test_finalize_copies_stats(self):
        stats = QueryStats(
            objects_scored=17, combinations=4, trace_id="abc123", wall_s=0.01
        )
        query = PreferenceQuery(5, 0.05, 0.5, (0b1,))
        plan = QueryPlan.from_stats(query, "stps", stats)
        assert plan.objects_scored == 17
        assert plan.combinations.released == 4
        assert plan.trace_id == "abc123"
        assert plan.elapsed_s == 0.01
        assert plan.algorithm == "stps"
        assert plan.variant == "range"
        assert (plan.k, plan.c) == (5, 1)

    def test_counters_view(self):
        stats = QueryStats(combinations=1, objects_scored=3)
        stats.feature_set(0).features_pulled += 2
        stats.feature_set(1).features_pulled += 1
        stats.shards += [
            ShardDiag(0, "executed", 1.0, -math.inf),
            ShardDiag(1, "pruned", 0.1, 0.5),
        ]
        assert _plan(stats).counters() == {
            "repro_combinations_total": 1.0,
            "repro_objects_scored_total": 3.0,
            "repro_features_pulled_total[0]": 2.0,
            "repro_features_pulled_total[1]": 1.0,
            "repro_shard_queries[executed]": 1.0,
            "repro_shard_queries[pruned]": 1.0,
        }


class TestPlanRendering:
    def _populated_plan(self) -> QueryPlan:
        stats = QueryStats(
            combinations=1,
            voronoi_cells_computed=1,
            trace_id="deadbeef",
            detail=PlanDetail(trajectory=[(1, 0, 0.8, 0.7)]),
        )
        diag = stats.feature_set(0)
        diag.nodes_visited += 1
        diag.nodes_pruned += 1
        diag.pruned_bounds.add(0.3)
        diag.pull_rounds += 1
        stats.chunk_scanned(0, 100, 0.9)
        stats.shards.append(ShardDiag(0, "executed", 1.0, -math.inf))
        return _plan(stats)

    def test_to_json_round_trips(self):
        doc = json.loads(self._populated_plan().to_json())
        assert doc["schema_version"] == explain.PLAN_SCHEMA_VERSION
        assert doc["trace_id"] == "deadbeef"
        assert doc["feature_sets"][0]["nodes_visited"] == 1
        assert doc["combinations"]["released"] == 1
        assert doc["combinations"]["trajectory"][0]["threshold"] == 0.8
        assert doc["stds"]["chunk_count"] == 1
        assert doc["stds"]["chunks"] == [
            {"chunk": 0, "size": 100, "threshold": 0.9}
        ]
        assert doc["shards"][0]["verdict"] == "executed"
        assert doc["shard_outcomes"] == {"executed": 1}

    def test_infinities_are_json_safe(self):
        plan = self._populated_plan()
        plan.stds.threshold_final = -math.inf
        doc = json.loads(plan.to_json())  # must not emit bare Infinity
        assert doc["stds"]["threshold_final"] is None
        assert doc["shards"][0]["floor"] is None

    def test_render_mentions_every_section(self):
        text = self._populated_plan().render()
        assert "QUERY PLAN" in text
        assert "trace_id=deadbeef" in text
        assert "feature sets" in text
        assert "combinations" in text
        assert "stds scan" in text
        assert "voronoi" in text
        assert "shard fan-out" in text


@pytest.fixture(scope="module")
def processor():
    objects = synthetic_objects(300, seed=5)
    feature_sets = synthetic_feature_sets(2, 200, 32, seed=6)
    return QueryProcessor.build(objects, feature_sets)


class TestExplainEndToEnd:
    def test_explain_matches_plain_query(self, processor):
        q = PreferenceQuery(5, 0.05, 0.5, (0b111, 0b1110))
        report = processor.explain(q, algorithm="stps")
        plain = processor.query(q, algorithm="stps")
        assert [(i.oid, i.score) for i in report.result.items] == [
            (i.oid, i.score) for i in plain.items
        ]
        plan = report.plan
        assert plan.algorithm == "stps"
        assert plan.trace_id == report.result.stats.trace_id
        assert plan.objects_scored == report.result.stats.objects_scored
        assert plan.combinations.released == report.result.stats.combinations
        assert plan.features_pulled_total == (
            report.result.stats.features_pulled
        )

    def test_explain_stds_records_scan(self, processor):
        q = PreferenceQuery(5, 0.05, 0.5, (0b111, 0b1110))
        report = processor.explain(q, algorithm="stds")
        assert report.plan.stds is not None
        assert report.plan.stds.chunk_count >= 1
        assert report.plan.objects_scored > 0

    def test_explain_influence(self, processor):
        q = PreferenceQuery(
            5, 0.05, 0.5, (0b111, 0b1110), variant=Variant.INFLUENCE
        )
        stps_report = processor.explain(q, algorithm="stps")
        assert stps_report.plan.combinations is not None
        stds_report = processor.explain(q, algorithm="stds")
        assert [(i.oid, i.score) for i in stps_report.result.items] == [
            (i.oid, i.score) for i in stds_report.result.items
        ]

    def test_explain_nearest_records_voronoi(self, processor):
        q = PreferenceQuery(
            5, 0.05, 0.5, (0b111, 0b1110), variant=Variant.NEAREST
        )
        report = processor.explain(q)
        assert report.plan.voronoi is not None
        assert report.plan.voronoi["cells_computed"] >= 1

    def test_query_without_collector_builds_no_plan(self, processor):
        """A plain query keeps every counter but none of the series."""
        q = PreferenceQuery(5, 0.05, 0.5, (0b111, 0b1110))
        result = processor.query(q)
        assert result.stats.trace_id  # trace id is always minted
        assert result.stats.detail is None
        assert result.stats.pull_rounds > 0
        assert all(
            d.pruned_bounds is None for d in result.stats.feature_sets
        )

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    def test_stats_and_plan_agree_on_node_visits(
        self, processor, algorithm, variant
    ):
        """One count per event: what ``stats.nodes_expanded`` says is
        what the plan's per-set ``nodes_visited`` add up to."""
        q = PreferenceQuery(5, 0.05, 0.5, (0b111, 0b1110), variant=variant)
        report = processor.explain(q, algorithm=algorithm)
        visited = sum(d.nodes_visited for d in report.plan.feature_sets)
        assert report.result.stats.nodes_expanded == visited
        assert visited > 0
        plain = processor.query(q, algorithm=algorithm).stats
        assert plain.nodes_expanded == visited  # explain changes no count
        assert plain.heap_pops == sum(d.heap_pops for d in plain.feature_sets)

    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    def test_sharded_explain_k0_is_stamped(self, algorithm):
        objects = synthetic_objects(120, seed=5)
        feature_sets = synthetic_feature_sets(2, 80, 32, seed=6)
        q = PreferenceQuery(0, 0.05, 0.5, (0b111, 0b1110))
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.08
        ) as sharded:
            report = sharded.explain(q, algorithm=algorithm)
        plan = report.plan
        assert report.result.items == []
        assert plan.algorithm == f"sharded/{algorithm}"
        assert plan.trace_id == report.result.stats.trace_id != ""
        assert (plan.k, plan.c, plan.radius) == (0, 2, 0.05)

