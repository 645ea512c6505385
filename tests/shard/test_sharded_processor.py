"""Unit tests for the sharded query engine: fan-out, pruning, merging."""

from __future__ import annotations

import math
import random
import threading

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.errors import QueryError, ReproError, ShardError
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.obs import metrics as obs_metrics
from repro.shard import ShardedQueryProcessor
from repro.text.vocabulary import Vocabulary
from tests.conftest import make_data_objects, make_feature_objects

VOCAB = Vocabulary(f"kw{i}" for i in range(16))


@pytest.fixture(scope="module")
def datasets():
    objects = ObjectDataset(make_data_objects(150, seed=21))
    feature_sets = [
        FeatureDataset(
            make_feature_objects(100, seed=22 + j, vocab_size=len(VOCAB)),
            VOCAB,
            f"set{j}",
        )
        for j in range(2)
    ]
    return objects, feature_sets


@pytest.fixture(scope="module")
def base(datasets):
    objects, feature_sets = datasets
    return QueryProcessor.build(objects, feature_sets)


def _query(k=5, radius=0.05, lam=0.5, variant=Variant.RANGE, seed=0):
    rng = random.Random(seed)
    masks = tuple(
        sum(1 << t for t in rng.sample(range(len(VOCAB)), 3))
        for _ in range(2)
    )
    return PreferenceQuery(k, radius, lam, masks, variant)


def _items(result):
    return [(item.oid, item.score) for item in result.items]


class TestEquivalence:
    def test_four_shards_match_unsharded(self, datasets, base):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=4, radius=0.08
        ) as sharded:
            for seed in range(5):
                q = _query(seed=seed)
                assert _items(sharded.query(q)) == _items(base.query(q))

    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    def test_algorithms_agree(self, datasets, base, algorithm):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as sharded:
            q = _query(seed=7)
            assert _items(sharded.query(q, algorithm=algorithm)) == _items(
                base.query(q, algorithm=algorithm)
            )

    def test_external_floor_composes(self, datasets, base):
        objects, feature_sets = datasets
        q = _query(k=3, seed=3)
        exact = base.query(q)
        kth = exact.items[-1].score
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=4, radius=0.08
        ) as sharded:
            assert _items(sharded.query(q, floor=kth)) == _items(exact)

    def test_query_many_matches_serial(self, datasets, base):
        objects, feature_sets = datasets
        queries = [_query(seed=s) for s in range(4)] + [_query(seed=0)]
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=4, radius=0.08
        ) as sharded:
            batch = sharded.query_many(queries)
        assert len(batch) == len(queries)
        for q, result in zip(queries, batch):
            assert _items(result) == _items(base.query(q))


class TestQueryShapeValidation:
    def test_radius_larger_than_halo_rejected(self, datasets):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.05
        ) as sharded:
            with pytest.raises(QueryError, match="halo"):
                sharded.query(_query(radius=0.2))

    @pytest.mark.parametrize(
        "variant", [Variant.INFLUENCE, Variant.NEAREST]
    )
    def test_unbounded_variants_need_full_replication(
        self, datasets, variant
    ):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.05
        ) as sharded:
            with pytest.raises(QueryError, match="full"):
                sharded.query(_query(variant=variant))

    def test_wrong_feature_set_count(self, datasets):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.05
        ) as sharded:
            bad = PreferenceQuery(5, 0.05, 0.5, (0b1,))
            with pytest.raises(QueryError, match="feature sets"):
                sharded.query(bad)

    def test_closed_processor_rejects_queries(self, datasets):
        objects, feature_sets = datasets
        sharded = ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.05
        )
        sharded.close()
        with pytest.raises(ShardError):
            sharded.query(_query())


class TestPruningAndMetrics:
    def test_shard_outcomes_counted(self, datasets):
        from repro.shard.sharded_processor import shard_queries_metric

        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=4, radius=0.08
        ) as sharded:
            sharded.reset_stats()  # zeroes the shard metric families too
            for seed in range(6):
                sharded.query(_query(k=1, seed=seed))
            family = shard_queries_metric()
            by_outcome: dict[str, float] = {}
            for labelvalues, child in family.series():
                outcome = dict(
                    zip(family.labelnames, labelvalues)
                )["outcome"]
                by_outcome[outcome] = (
                    by_outcome.get(outcome, 0.0) + child.value
                )
        executed = by_outcome.get("executed", 0.0)
        pruned = by_outcome.get("pruned", 0.0)
        assert executed >= 6  # at least one shard ran per query
        assert by_outcome.get("failed", 0.0) == 0.0
        assert executed + pruned == 6 * sharded.shard_count

    def test_pruning_never_changes_results(self, datasets, base):
        """k=1 maximizes pruning; answers must still be exact."""
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=8, radius=0.08
        ) as sharded:
            for seed in range(10):
                q = _query(k=1, seed=seed)
                assert _items(sharded.query(q)) == _items(base.query(q))

    def test_fanout_and_merge_phases_traced(self, datasets):
        from repro.obs import tracing

        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.08
        ) as sharded:
            with tracing.enabled_tracing():
                result = sharded.query(_query())
        phases = result.stats.phase_times
        assert "shard.fanout" in phases
        assert "shard.merge" in phases

    def test_merged_stats_are_summed(self, datasets):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as sharded:
            result = sharded.query(_query(k=20))
        assert result.stats.objects_scored > 0
        assert result.stats.wall_s > 0.0


class TestFailureIsolation:
    """A poisoned shard fails its query with context — nothing wedges."""

    @staticmethod
    def _poison_shard(shard, exc):
        def bad_query(*args, **kwargs):
            raise exc

        shard.processor.execute = bad_query

    @classmethod
    def _poison(cls, sharded, exc):
        cls._poison_shard(sharded.shards[0], exc)

    def test_shard_crash_wrapped_with_shard_id(self, datasets):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as sharded:
            self._poison(sharded, RuntimeError("page torn"))
            with pytest.raises(ShardError) as excinfo:
                sharded.query(_query())
            assert excinfo.value.shard_id == sharded.specs[0].shard_id
            assert "page torn" in str(excinfo.value)

    def test_library_errors_propagate_unwrapped(self, datasets):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as sharded:
            self._poison(sharded, QueryError("bad k"))
            with pytest.raises(QueryError, match="bad k"):
                sharded.query(_query())

    def test_failing_shard_ends_the_fanout(self, datasets):
        """Nothing runs, counts or appends after the failing shard: the
        verdicts, the outcome counters and the error record agree."""
        from repro.core.results import QueryStats
        from repro.obs import requests
        from repro.shard.sharded_processor import shard_queries_metric

        objects, feature_sets = datasets
        q = _query(k=100)  # more than a shard returns: nothing is pruned
        requests.clear()
        requests.configure(enabled_=True, slow_threshold_s=0.0)
        try:
            with obs_metrics.scoped_registry(), ShardedQueryProcessor.build(
                objects, feature_sets, shards=4, radius=0.08
            ) as sharded:
                order = sorted(
                    sharded.shards, key=lambda s: (-s.bound(q), s.spec.shard_id)
                )
                first, victim = (s.spec.shard_id for s in order[:2])
                self._poison_shard(order[1], RuntimeError("page torn"))
                stats = QueryStats()
                with pytest.raises(ShardError):
                    sharded.query(q, stats=stats)
                family = shard_queries_metric()
                counted = sum(child.value for _, child in family.series())
            assert [(v.shard_id, v.verdict) for v in stats.shards] == [
                (first, "executed"), (victim, "failed"),
            ]
            assert counted == len(stats.shards)
            (record,) = [
                r for r in requests.flight_records()
                if "error" in r and r["algorithm"] == "sharded/stps"
            ]
            assert {
                key: n for key, n in record["counters"].items()
                if key.startswith("shards[")
            } == {"shards[executed]": 1, "shards[failed]": 1}
        finally:
            requests.configure(
                enabled_=False,
                slow_threshold_s=requests.DEFAULT_SLOW_THRESHOLD_S,
            )
            requests.clear()

    def test_batch_records_failure_and_carries_on(self, datasets, base):
        """One bad query in a batch -> None + QueryFailure, rest exact."""
        objects, feature_sets = datasets
        good = [_query(seed=s) for s in range(3)]
        bad = _query(radius=0.5)  # exceeds the halo -> QueryError
        queries = [good[0], bad, good[1], good[2]]
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as sharded:
            results = sharded.query_many(queries, on_error="return")
            assert results[1] is None
            for i in (0, 2, 3):
                assert _items(results[i]) == _items(
                    base.query(queries[i])
                )
            # Default mode still raises, after the batch settles.
            with pytest.raises(ReproError):
                sharded.query_many(queries)

    def test_processor_usable_after_failure(self, datasets, base):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as sharded:
            with pytest.raises(QueryError):
                sharded.query(_query(radius=0.5))
            q = _query(seed=1)
            assert _items(sharded.query(q)) == _items(base.query(q))


class TestLifecycle:
    def test_describe_and_trees(self, datasets):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=4, radius=0.05
        ) as sharded:
            info = sharded.describe()
            assert info["replication"] == "halo"
            assert info["shards"] == sharded.shard_count
            assert len(info["layout"]) == sharded.shard_count
            # object tree + 2 feature trees per shard
            assert len(sharded.trees()) == 3 * sharded.shard_count

    def test_clear_buffers_counts_all_shards(self, datasets):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=2, radius=0.05
        ) as sharded:
            sharded.query(_query())
            dropped = sharded.clear_buffers()
            assert dropped["nodes"] > 0

    def test_full_replication_serves_all_variants(self, datasets, base):
        objects, feature_sets = datasets
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=4, radius=0.05,
            replication="full",
        ) as sharded:
            assert math.isinf(sharded.radius)
            assert sharded.describe()["replication"] == "full"
            for variant in Variant:
                q = _query(variant=variant, seed=2)
                assert _items(sharded.query(q)) == _items(base.query(q))


class TestThreadLifecycle:
    """Neither the executor nor a sharded fan-out starts a thread."""

    def test_executor_context_exit_leaves_no_threads(self, base):
        from repro.core.executor import QueryExecutor

        before = threading.active_count()
        with QueryExecutor(base, max_workers=3) as executor:
            executor.query_many([_query(seed=0), _query(seed=1)])
            assert threading.active_count() == before
        assert threading.active_count() == before

    def test_sharded_context_exit_leaves_no_threads(self, datasets):
        objects, feature_sets = datasets
        before = threading.active_count()
        with ShardedQueryProcessor.build(
            objects, feature_sets, shards=3, radius=0.08
        ) as sharded:
            sharded.query(_query())
            assert threading.active_count() == before
        assert threading.active_count() == before
