"""Differential check: EXPLAIN plans reconcile with metric counters.

The QueryPlan is a view of the query's ``QueryStats``; the Prometheus
counters are incremented from the same stats after the query returns.
If the two ever disagree, one of them is lying about what the query did.
For every algorithm/variant/pulling combination (and the sharded
engine), this module runs ``explain`` and asserts

* ``plan.counters()`` equals the registry counter deltas caused by that
  one query, family by family (label-selected where the plan key names
  a feature set or a shard verdict), and
* the explained result is item-identical to a plain ``query`` run —
  diagnostics must never perturb answers.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.core.combinations import PULL_PRIORITIZED, PULL_ROUND_ROBIN
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.obs import metrics as _metrics
from repro.obs.explain import counter_deltas, counter_snapshot
from repro.shard import ShardedQueryProcessor

#: plan.counters() key grammar: ``family`` or ``family[selector]``.
_KEY_RE = re.compile(r"^(?P<family>[a-zA-Z_:][a-zA-Z0-9_:]*)(\[(?P<sel>[^\]]+)\])?$")

#: Which label carries the plan key's selector, per family.
_SELECTOR_LABEL = {
    "repro_features_pulled_total": "feature_set",
    "repro_shard_queries": "outcome",
}


@pytest.fixture(scope="module")
def corpus():
    objects = synthetic_objects(240, seed=31)
    feature_sets = synthetic_feature_sets(2, 150, 32, seed=32)
    return objects, feature_sets


@pytest.fixture(scope="module")
def processor(corpus):
    objects, feature_sets = corpus
    return QueryProcessor.build(objects, feature_sets)


def _summed_delta(deltas, family: str, selector: str | None) -> float:
    """Sum a family's deltas, filtered to the plan key's selector."""
    fam = _metrics.registry().get(family)
    sel_pos = None
    if selector is not None:
        assert fam is not None, f"plan names unregistered family {family}"
        sel_pos = fam.labelnames.index(_SELECTOR_LABEL[family])
    total = 0.0
    for (name, labelvalues), value in deltas.items():
        if name != family:
            continue
        if sel_pos is not None and labelvalues[sel_pos] != selector:
            continue
        total += value
    return total


def _assert_plan_matches_deltas(plan, deltas) -> None:
    counters = plan.counters()
    assert counters, "plan produced no counters"
    for key, expected in counters.items():
        m = _KEY_RE.match(key)
        assert m, f"malformed plan counter key {key!r}"
        got = _summed_delta(deltas, m.group("family"), m.group("sel"))
        assert got == pytest.approx(expected), (
            f"{key}: plan says {expected}, registry moved by {got}"
        )


CONFIGS = [
    pytest.param("stps", Variant.RANGE, PULL_PRIORITIZED, id="stps-range-prioritized"),
    pytest.param("stps", Variant.RANGE, PULL_ROUND_ROBIN, id="stps-range-roundrobin"),
    pytest.param("stds", Variant.RANGE, PULL_PRIORITIZED, id="stds-range"),
    pytest.param("stps", Variant.INFLUENCE, PULL_PRIORITIZED, id="stps-influence"),
    pytest.param("iss", Variant.INFLUENCE, PULL_PRIORITIZED, id="iss-influence"),
    pytest.param("stps", Variant.NEAREST, PULL_PRIORITIZED, id="stps-nearest"),
]


class TestUnshardedReconciliation:
    @pytest.mark.parametrize(("algorithm", "variant", "pulling"), CONFIGS)
    def test_plan_counters_match_registry_deltas(
        self, processor, algorithm, variant, pulling
    ):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101), variant)
        before = counter_snapshot(_metrics.registry())
        report = processor.explain(query, algorithm=algorithm, pulling=pulling)
        deltas = counter_deltas(before, counter_snapshot(_metrics.registry()))
        _assert_plan_matches_deltas(report.plan, deltas)

    @pytest.mark.parametrize(("algorithm", "variant", "pulling"), CONFIGS)
    def test_explain_result_identical_to_plain_query(
        self, processor, algorithm, variant, pulling
    ):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101), variant)
        plain = processor.query(query, algorithm=algorithm, pulling=pulling)
        report = processor.explain(query, algorithm=algorithm, pulling=pulling)
        assert report.result.items == plain.items


class TestShardedReconciliation:
    @pytest.fixture(scope="class")
    def sharded(self, corpus):
        objects, feature_sets = corpus
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as proc:
            yield proc

    @pytest.mark.parametrize("pulling", [PULL_PRIORITIZED, PULL_ROUND_ROBIN])
    def test_sharded_plan_counters_match_registry_deltas(
        self, sharded, pulling
    ):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
        before = counter_snapshot(_metrics.registry())
        report = sharded.explain(query, pulling=pulling)
        deltas = counter_deltas(before, counter_snapshot(_metrics.registry()))
        plan = report.plan
        _assert_plan_matches_deltas(plan, deltas)
        # Shard verdicts account for every shard exactly once.
        assert len(plan.shards) == len(sharded.shards)
        assert [s.shard_id for s in plan.shards] == [0, 1, 2]

    def test_sharded_explain_matches_unsharded_query(
        self, sharded, processor
    ):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
        report = sharded.explain(query)
        plain = processor.query(query)
        assert [i.oid for i in report.result.items] == [
            i.oid for i in plain.items
        ]


class TestProcessFanoutReconciliation:
    """Process-mode fan-out: worker metric deltas and sub-plans must be
    forwarded over the result channel such that plan/registry
    reconciliation is exact — same invariant as in-process execution."""

    @pytest.fixture(scope="class")
    def sharded(self, corpus):
        objects, feature_sets = corpus
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08,
            fanout="processes",
        ) as proc:
            yield proc

    @pytest.mark.parametrize("pulling", [PULL_PRIORITIZED, PULL_ROUND_ROBIN])
    def test_process_plan_counters_match_registry_deltas(
        self, sharded, pulling
    ):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
        before = counter_snapshot(_metrics.registry())
        report = sharded.explain(query, pulling=pulling)
        deltas = counter_deltas(before, counter_snapshot(_metrics.registry()))
        plan = report.plan
        _assert_plan_matches_deltas(plan, deltas)
        assert len(plan.shards) == len(sharded.shards)
        # Executed shards carry their worker-produced sub-plan.
        executed = [s for s in plan.shards if s.verdict == "executed"]
        assert executed
        assert all(s.plan is not None for s in executed)

    def test_process_explain_matches_thread_mode(self, sharded, corpus):
        objects, feature_sets = corpus
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
        report = sharded.explain(query)
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as threaded:
            thread_report = threaded.explain(query)
        assert [i.oid for i in report.result.items] == [
            i.oid for i in thread_report.result.items
        ]
        # Same per-shard verdict structure, fan-out substrate aside.
        assert [s.shard_id for s in report.plan.shards] == [
            s.shard_id for s in thread_report.plan.shards
        ]

    def test_serial_and_process_fanout_merge_to_equal_stats(self, corpus):
        """One merge, two substrates: the same 3-shard query run shard
        by shard yields the same merged counts and plan counters whether
        the shards' stats were counted on the caller's thread or crossed
        a process boundary inside the result."""
        objects, feature_sets = corpus
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
        io_fields = {
            "io_reads", "buffer_hits", "node_cache_hits",
            "node_cache_misses", "voronoi_io_reads",
        }  # cache state is per process, not per query

        def counts(stats):
            scalars = {
                f.name: getattr(stats, f.name)
                for f in dataclasses.fields(stats)
                if f.type == "int" and f.name not in io_fields
            }
            sets = [
                (d.to_dict(), d.heap_pops) for d in stats.feature_sets
            ]
            verdicts = [
                (s.shard_id, s.verdict, s.bound, s.floor)
                for s in stats.shards
            ]
            return scalars, sets, verdicts

        reports = {}
        for fanout in ("serial", "processes"):
            with ShardedQueryProcessor.build(
                objects, feature_sets, shards=3, radius=0.08,
                fanout=fanout, max_workers=1,
            ) as proc:
                reports[fanout] = proc.explain(query)
        serial, processes = reports["serial"], reports["processes"]
        assert counts(serial.result.stats) == counts(processes.result.stats)
        assert serial.result.stats.pull_rounds > 0
        assert serial.plan.counters() == processes.plan.counters()
        assert serial.result.items == processes.result.items
