"""Tests for the QueryProcessor facade."""

import pytest

from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.errors import QueryError


def _q(variant=Variant.RANGE):
    return PreferenceQuery(
        k=5, radius=0.08, lam=0.5, keyword_masks=(0b11, 0b110), variant=variant
    )


class TestBuild:
    def test_build_srt_default(self, objects, feature_sets):
        processor = QueryProcessor.build(objects, feature_sets)
        from repro.index.srt import SRTIndex

        assert all(isinstance(t, SRTIndex) for t in processor.feature_trees)

    def test_build_ir2(self, objects, feature_sets):
        processor = QueryProcessor.build(objects, feature_sets, index="ir2")
        from repro.index.ir2 import IR2Tree

        assert all(isinstance(t, IR2Tree) for t in processor.feature_trees)

    def test_unknown_index_rejected(self, objects, feature_sets):
        with pytest.raises(QueryError):
            QueryProcessor.build(objects, feature_sets, index="btree")

    def test_no_feature_trees_rejected(self, srt_processor):
        with pytest.raises(QueryError):
            QueryProcessor(srt_processor.object_tree, [])

    def test_insert_method_build(self, objects, feature_sets):
        processor = QueryProcessor.build(
            objects, feature_sets, method="insert"
        )
        for tree in processor.feature_trees:
            tree.validate()


class TestDispatch:
    @pytest.mark.parametrize(
        "variant", [Variant.RANGE, Variant.INFLUENCE, Variant.NEAREST]
    )
    @pytest.mark.parametrize("algorithm", ["stps", "stds"])
    def test_all_paths_run(self, srt_processor, variant, algorithm):
        result = srt_processor.query(_q(variant), algorithm=algorithm)
        assert len(result) == 5
        assert result.scores == sorted(result.scores, reverse=True)

    def test_stds_and_stps_agree(self, srt_processor):
        q = _q()
        a = srt_processor.query(q, algorithm="stps")
        b = srt_processor.query(q, algorithm="stds")
        assert a.scores == pytest.approx(b.scores, abs=1e-9)

    def test_unknown_algorithm(self, srt_processor):
        with pytest.raises(QueryError):
            srt_processor.query(_q(), algorithm="magic")


class TestBufferControl:
    def test_clear_buffers_forces_physical_reads(self, objects, feature_sets):
        processor = QueryProcessor.build(objects, feature_sets)
        processor.query(_q())
        processor.reset_stats()
        processor.query(_q())
        warm_reads = processor.object_tree.stats.reads + sum(
            t.stats.reads for t in processor.feature_trees
        )
        processor.clear_buffers()
        processor.reset_stats()
        processor.query(_q())
        cold_reads = processor.object_tree.stats.reads + sum(
            t.stats.reads for t in processor.feature_trees
        )
        assert cold_reads > warm_reads

    def test_reset_stats(self, srt_processor):
        srt_processor.query(_q())
        srt_processor.reset_stats()
        assert srt_processor.object_tree.stats.reads == 0
        assert all(
            t.stats.reads == 0 for t in srt_processor.feature_trees
        )

    def test_reset_stats_zeroes_node_cache_counters(self, srt_processor):
        """Regression: node-cache hit/miss counters used to survive resets."""
        srt_processor.query(_q())
        trees = (srt_processor.object_tree, *srt_processor.feature_trees)
        assert any(t.node_cache.hits + t.node_cache.misses for t in trees)
        srt_processor.reset_stats()
        for tree in trees:
            assert tree.node_cache.hits == 0
            assert tree.node_cache.misses == 0
            assert tree.stats.node_cache_hits == 0
            assert tree.stats.node_cache_misses == 0

    def test_reset_stats_zeroes_metrics_registry(self, srt_processor):
        from repro.obs import metrics

        srt_processor.query(_q())
        families = metrics.registry().families()
        assert any(list(f.series()) for f in families)
        srt_processor.reset_stats()
        for family in metrics.registry().families():
            for _, metric in family.series():
                value = getattr(metric, "count", None)
                if value is None:
                    value = metric.value
                assert value == 0

    def test_reset_stats_can_leave_metrics_alone(self, srt_processor):
        from repro.obs import metrics

        srt_processor.query(_q())
        before = metrics.registry().counter(
            "repro_queries_total",
            "Queries executed.",
            ("algorithm", "variant"),
        )
        total = sum(m.value for _, m in before.series())
        assert total > 0
        srt_processor.reset_stats(metrics=False)
        assert sum(m.value for _, m in before.series()) == total

    def test_clear_buffers_reports_dropped(self, objects, feature_sets):
        processor = QueryProcessor.build(objects, feature_sets)
        processor.query(_q())
        dropped = processor.clear_buffers()
        assert dropped["nodes"] > 0
        # Everything is gone, so a second clear drops nothing.
        assert processor.clear_buffers() == {"nodes": 0}

    def test_cold_run_stats_start_from_zero(self, objects, feature_sets):
        """clear_buffers + reset_stats gives a genuinely cold measurement."""
        processor = QueryProcessor.build(objects, feature_sets)
        processor.query(_q())  # warm everything
        processor.clear_buffers()
        processor.reset_stats()
        trees = (processor.object_tree, *processor.feature_trees)
        assert all(t.node_cache.hits + t.node_cache.misses == 0 for t in trees)
        processor.query(_q())
        # First touch of every node is a miss on a truly cold cache.
        assert any(t.node_cache.misses > 0 for t in trees)
