"""Tests for repro.obs.explain: collectors, plans, EXPLAIN end-to-end."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.obs import explain
from repro.obs.explain import (
    MAX_BOUND_SAMPLES,
    MAX_TRAJECTORY,
    NULL_COLLECTOR,
    BoundSummary,
    DiagnosticsCollector,
    QueryPlan,
    counter_deltas,
    counter_snapshot,
    resolve,
)
from repro.obs.metrics import MetricsRegistry


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
    def test_feature_set_anatomy(self):
        col = DiagnosticsCollector()
        col.node_visited(0, 1.0)
        col.node_pruned(0)  # text prune: no bound
        col.node_pruned(0, 0.4)  # bound prune
        col.entries_pruned(0, 7)
        col.entries_pruned(0, 0)  # no-op
        col.feature_pulled(1)
        plan = col.plan()
        assert [d.set_id for d in plan.feature_sets] == [0, 1]
        d0 = plan.feature_sets[0]
        assert (d0.nodes_visited, d0.nodes_pruned, d0.entries_pruned) == (
            1, 2, 7,
        )
        assert d0.pruned_bounds.count == 1  # only the bound-carrying prune
        assert plan.feature_sets[1].features_pulled == 1

    def test_pull_trajectory_capped(self):
        col = DiagnosticsCollector()
        for i in range(MAX_TRAJECTORY + 5):
            col.pull(0, 0.5, 0.4)
        cd = col.plan().combinations
        assert cd.pull_rounds == MAX_TRAJECTORY + 5
        assert len(cd.trajectory) == MAX_TRAJECTORY
        assert cd.to_dict()["trajectory_truncated"] is True

    def test_combination_accept_reject(self):
        col = DiagnosticsCollector()
        col.combination(1.0, accepted=True)
        col.combination(0.9, accepted=False)
        col.retrieval_skipped(0.8)
        cd = col.plan().combinations
        assert (cd.released, cd.rejected_2r, cd.retrievals_skipped) == (
            1, 1, 1,
        )

    def test_shard_verdicts_sorted_and_counted(self):
        col = DiagnosticsCollector()
        col.shard(2, "pruned", 0.3, 0.5)
        col.shard(0, "executed", 0.9, 0.5)
        col.shard(1, "failed", 0.7, 0.5, error="boom")
        plan = col.plan()
        assert [s.shard_id for s in plan.shards] == [0, 1, 2]
        assert plan.shard_outcomes() == {
            "executed": 1, "failed": 1, "pruned": 1,
        }

    def test_executed_shard_merges_sub_plan(self):
        col = DiagnosticsCollector()
        sub = col.child(0)
        sub.feature_pulled(0)
        sub.feature_pulled(1)
        sub.combination(1.0, accepted=True)
        sub.combination(0.5, accepted=False)
        col.shard(0, "executed", 1.0, -math.inf, sub_plan=sub.plan())
        plan = col.plan()
        assert plan.features_pulled_total == 2
        assert plan.combinations.released == 1
        assert plan.combinations.rejected_2r == 1
        # The embedded sub-plan survives verbatim.
        assert plan.shards[0].plan["feature_sets"][0]["features_pulled"] == 1

    def test_finalize_copies_stats(self):
        from repro.core.results import QueryStats

        col = DiagnosticsCollector()
        col.combination(1.0, accepted=True)
        stats = QueryStats()
        stats.objects_scored = 17
        stats.combinations = 4  # the authoritative count
        query = PreferenceQuery(5, 0.05, 0.5, (0b1,))
        col.finalize(query, "stps", "prioritized", "abc123", 0.01, stats)
        plan = col.plan()
        assert plan.objects_scored == 17
        assert plan.combinations.released == 4
        assert plan.trace_id == "abc123"
        assert plan.algorithm == "stps"
        assert plan.variant == "range"
        assert plan.k == 5

    def test_counters_view(self):
        col = DiagnosticsCollector()
        col.feature_pulled(0)
        col.feature_pulled(0)
        col.feature_pulled(1)
        col.combination(1.0, accepted=True)
        col.shard(0, "executed", 1.0, -math.inf)
        col.shard(1, "pruned", 0.1, 0.5)
        plan = col.plan()
        plan.objects_scored = 3
        assert plan.counters() == {
            "repro_combinations_total": 1.0,
            "repro_objects_scored_total": 3.0,
            "repro_features_pulled_total[0]": 2.0,
            "repro_features_pulled_total[1]": 1.0,
            "repro_shard_queries[executed]": 1.0,
            "repro_shard_queries[pruned]": 1.0,
        }


class TestNullCollector:
    def test_inactive_and_inert(self):
        assert NULL_COLLECTOR.active is False
        NULL_COLLECTOR.node_visited(0, 1.0)
        NULL_COLLECTOR.pull(0, 0.5, 0.4)
        NULL_COLLECTOR.shard(0, "executed", 1.0, 0.0)
        assert NULL_COLLECTOR.child(3) is NULL_COLLECTOR
        assert NULL_COLLECTOR.plan().objects_scored == 0

    def test_resolve(self):
        col = DiagnosticsCollector()
        assert resolve(col) is col
        assert resolve(None) is NULL_COLLECTOR


class TestPlanRendering:
    def _populated_plan(self) -> QueryPlan:
        col = DiagnosticsCollector()
        col.node_visited(0, 1.0)
        col.node_pruned(0, 0.3)
        col.pull(0, 0.8, 0.7)
        col.combination(1.0, accepted=True)
        col.chunk(0, 100, 0.9)
        col.voronoi_cell(cache_hit=False)
        col.iss_probe(point=True)
        col.shard(0, "executed", 1.0, -math.inf)
        plan = col.plan()
        plan.algorithm = "stps"
        plan.variant = "range"
        plan.trace_id = "deadbeef"
        return plan

    def test_to_json_round_trips(self):
        doc = json.loads(self._populated_plan().to_json())
        assert doc["schema_version"] == explain.PLAN_SCHEMA_VERSION
        assert doc["trace_id"] == "deadbeef"
        assert doc["feature_sets"][0]["nodes_visited"] == 1
        assert doc["combinations"]["released"] == 1
        assert doc["stds"]["chunk_count"] == 1
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
        assert "iss" in text
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

    def test_explain_influence_and_iss(self, processor):
        q = PreferenceQuery(
            5, 0.05, 0.5, (0b111, 0b1110), variant=Variant.INFLUENCE
        )
        stps_report = processor.explain(q, algorithm="stps")
        assert stps_report.plan.combinations is not None
        iss_report = processor.explain(q, algorithm="iss")
        assert iss_report.plan.iss is not None
        assert iss_report.plan.iss["bound_probes_point"] > 0
        assert [(i.oid, i.score) for i in stps_report.result.items] == [
            (i.oid, i.score) for i in iss_report.result.items
        ]

    def test_explain_nearest_records_voronoi(self, processor):
        q = PreferenceQuery(
            5, 0.05, 0.5, (0b111, 0b1110), variant=Variant.NEAREST
        )
        report = processor.explain(q)
        assert report.plan.voronoi is not None
        assert report.plan.voronoi["cells_computed"] >= 1

    def test_query_without_collector_builds_no_plan(self, processor):
        q = PreferenceQuery(5, 0.05, 0.5, (0b111, 0b1110))
        result = processor.query(q)
        assert result.stats.trace_id  # trace id is always minted
        # and the null collector accumulated nothing (shared instance).
        assert NULL_COLLECTOR.plan().feature_sets == []


class TestCounterSnapshot:
    def test_snapshot_and_deltas(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "c", ("lbl",))
        reg.gauge("g").set(5)  # gauges excluded from counter snapshots
        c.labels(lbl="a").inc(2)
        before = counter_snapshot(reg)
        c.labels(lbl="a").inc(3)
        c.labels(lbl="b").inc(1)
        deltas = counter_deltas(before, counter_snapshot(reg))
        assert deltas == {
            ("c_total", ("a",)): 3.0,
            ("c_total", ("b",)): 1.0,
        }
        assert ("g", ()) not in before
