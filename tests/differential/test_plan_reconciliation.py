"""Differential check: EXPLAIN plans reconcile with metric counters.

The QueryPlan and the registry's per-query families are two views of
the query's ``QueryStats``, derived once per query the caller asked
for.  If the two ever disagree, one of them is lying about what the
query did.  For every algorithm/variant combination (and the
sharded engine), this module runs ``explain``
under a fresh registry and asserts

* the registry holds exactly ``plan.counters()``, family by family
  (label-selected where the plan key names a feature set or a shard
  verdict), every series under the query's own labels, and
* the explained result is item-identical to a plain ``query`` run —
  diagnostics must never perturb answers.

A sharded query is one query to the registry: it moves
``repro_queries_total`` once, whatever its ``k``.
"""

from __future__ import annotations

import re

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.obs import metrics as _metrics
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


def _registry_view(reg, labels: dict) -> dict[str, float]:
    """A fresh registry's per-query counters in ``plan.counters()`` form.

    Every series must carry the query's own labels; the selector label
    (feature set, shard verdict) becomes the key's ``[...]`` part.
    """
    out: dict[str, float] = {}
    for family in reg.families():
        if family.type_name != "counter":
            continue
        if family.name == "repro_queries_total":
            continue
        for labelvalues, child in family.series():
            bound = dict(zip(family.labelnames, labelvalues))
            selector = bound.pop(_SELECTOR_LABEL.get(family.name), None)
            assert bound == {name: labels[name] for name in bound}, (
                f"{family.name}{labelvalues} is not under {labels}"
            )
            key = family.name
            if selector is not None:
                key = f"{family.name}[{selector}]"
            assert _KEY_RE.match(key), f"malformed counter key {key!r}"
            out[key] = out.get(key, 0.0) + child.value
    return out


def _assert_registry_is_plan_view(reg, plan, labels: dict) -> None:
    expected = {key: value for key, value in plan.counters().items() if value}
    assert expected, "plan produced no counters"
    assert _registry_view(reg, labels) == expected


def _labels(algorithm, variant) -> dict:
    return {"algorithm": algorithm, "variant": variant.value}


CONFIGS = [
    pytest.param("stps", Variant.RANGE, id="stps-range-prioritized"),
    pytest.param("stds", Variant.RANGE, id="stds-range"),
    pytest.param("stps", Variant.INFLUENCE, id="stps-influence"),
    pytest.param("stps", Variant.NEAREST, id="stps-nearest"),
]


class TestUnshardedReconciliation:
    @pytest.mark.parametrize(("algorithm", "variant"), CONFIGS)
    def test_plan_counters_match_registry_deltas(
        self, processor, algorithm, variant
    ):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101), variant)
        with _metrics.scoped_registry() as reg:
            report = processor.explain(query, algorithm=algorithm)
        _assert_registry_is_plan_view(
            reg, report.plan, _labels(algorithm, variant)
        )

    @pytest.mark.parametrize(("algorithm", "variant"), CONFIGS)
    def test_explain_result_identical_to_plain_query(
        self, processor, algorithm, variant
    ):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101), variant)
        plain = processor.query(query, algorithm=algorithm)
        report = processor.explain(query, algorithm=algorithm)
        assert report.result.items == plain.items


class TestShardedReconciliation:
    @pytest.fixture(scope="class")
    def sharded(self, corpus):
        objects, feature_sets = corpus
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as proc:
            yield proc

    def test_sharded_plan_counters_match_registry_deltas(self, sharded):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
        with _metrics.scoped_registry() as reg:
            report = sharded.explain(query)
        plan = report.plan
        _assert_registry_is_plan_view(
            reg, plan, _labels("stps", Variant.RANGE)
        )
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


class TestCountedOnce:
    """One sharded query is one query to the registry."""

    @pytest.fixture(scope="class")
    def sharded(self, corpus):
        objects, feature_sets = corpus
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as proc:
            yield proc

    @pytest.mark.parametrize("k", [5, 0])
    def test_sharded_query_is_counted_once(self, sharded, k):
        query = PreferenceQuery(k, 0.06, 0.5, (0b1011, 0b1101))
        with _metrics.scoped_registry() as reg:
            sharded.query(query)
        ((_, total),) = reg.get("repro_queries_total").series()
        ((_, seconds),) = reg.get("repro_query_seconds").series()
        assert total.value == 1
        assert seconds.count == 1

    def test_latency_exemplar_is_the_whole_query(self, sharded):
        query = PreferenceQuery(5, 0.06, 0.5, (0b1011, 0b1101))
        with _metrics.enabled_exemplars(), _metrics.scoped_registry() as reg:
            result = sharded.query(query)
        ((_, seconds),) = reg.get("repro_query_seconds").series()
        ((_, value, trace_id, _),) = seconds.exemplars()
        assert trace_id == result.stats.trace_id
        assert value >= result.stats.wall_s
