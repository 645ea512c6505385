"""Tests for the experiment registry and one end-to-end panel."""

import pytest

from repro.bench.config import BenchConfig
from repro.bench.context import BenchContext
from repro.bench.experiments import GROUPS, REGISTRY, resolve

EXPECTED_PANELS = {
    "table3a", "table3b", "table3c", "table3d",
    "fig7a", "fig7b", "fig7c", "fig7d",
    "fig8a", "fig8b", "fig8c", "fig8d",
    "fig9a", "fig9b", "fig9c", "fig9d",
    "fig10a", "fig10b", "fig10c", "fig10d",
    "fig11a", "fig11b",
    "fig12a", "fig12b", "fig12c", "fig12d",
    "fig13a", "fig13b",
    "fig14a", "fig14b",
    "ablation_buffer", "ablation_build",
}


class TestRegistry:
    def test_every_paper_panel_registered(self):
        assert EXPECTED_PANELS <= set(REGISTRY)

    def test_groups_cover_all(self):
        assert set(GROUPS["all"]) == set(REGISTRY)

    def test_resolve_group(self):
        experiments = resolve(["fig7"])
        assert [e.experiment_id for e in experiments] == [
            "fig7a", "fig7b", "fig7c", "fig7d",
        ]

    def test_resolve_dedupes(self):
        experiments = resolve(["fig7a", "fig7"])
        ids = [e.experiment_id for e in experiments]
        assert ids.count("fig7a") == 1

    def test_resolve_unknown(self):
        with pytest.raises(KeyError):
            resolve(["fig99"])

    def test_paper_refs_present(self):
        for experiment in REGISTRY.values():
            assert experiment.paper_ref
            assert experiment.title


@pytest.fixture(scope="module")
def tiny_ctx():
    cfg = BenchConfig(
        object_cardinality=400,
        feature_cardinality=400,
        cardinality_sweep=(200, 400),
        c_sweep=(2,),
        vocab_size=32,
        vocab_sweep=(32,),
        real_scale=0.005,
        radius=0.1,
        radius_sweep=(0.1,),
        k_sweep=(3,),
        lam_sweep=(0.5,),
        keywords_sweep=(2,),
        queries_per_point=2,
        stds_queries_per_point=1,
        nn_queries_per_point=1,
    )
    return BenchContext(cfg)


class TestEndToEnd:
    def test_scalability_panel_runs(self, tiny_ctx):
        result = REGISTRY["fig7a"].run(tiny_ctx)
        assert result.x_values == [200, 400]
        assert set(result.series) == {"STPS/SRT", "STPS/IR2"}
        for measurements in result.series.values():
            assert len(measurements) == 2
            assert all(m.total_ms >= 0 for m in measurements)

    def test_query_param_panel_runs(self, tiny_ctx):
        result = REGISTRY["fig8b"].run(tiny_ctx)
        assert result.x_values == [3]
        assert set(result.series) == {"STPS/SRT", "STPS/IR2"}

    def test_stds_panel_runs(self, tiny_ctx):
        result = REGISTRY["table3a"].run(tiny_ctx)
        assert set(result.series) == {"STDS/SRT", "STDS/IR2"}

    def test_nn_panel_tracks_voronoi(self, tiny_ctx):
        result = REGISTRY["fig14b"].run(tiny_ctx)
        any_voronoi = any(
            m.voronoi_ms > 0
            for ms in result.series.values()
            for m in ms
        )
        assert any_voronoi

    def test_context_caches_processors(self, tiny_ctx):
        a = tiny_ctx.synthetic_processor("srt")
        b = tiny_ctx.synthetic_processor("srt")
        assert a is b

    def test_ablation_build_runs(self, tiny_ctx):
        result = REGISTRY["ablation_build"].run(tiny_ctx)
        assert result.x_values == ["bulk", "insert"]
