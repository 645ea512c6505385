"""Public API surface tests."""

import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]
SHIPPED = ("src", "benchmarks", "examples")
ALL_FILES = tuple(f"{root}/**/*" for root in SHIPPED)
PY_FILES = tuple(f"{root}/**/*.py" for root in SHIPPED)

#: ``(pattern, globs, excluded file names)``: names a change took out,
#: searched for in the files under ``globs`` so none grows back
#: unnoticed.
REMOVED = {
    "second_collector": (r"collector=", ALL_FILES, ()),
    "thread_pool": (r"ThreadPoolExecutor", ("src/**/*.py",), ()),
    "per_query_state_merge": (
        r"merge_state|diff_state|snapshot_state|record_features_pulled"
        r"|counter_snapshot|verbose_events|fanout_seconds",
        PY_FILES, (),
    ),
    "mutation_listeners": (
        r"add_mutation_listener|attach_live|core\.streaming|_on_mutation",
        PY_FILES, (),
    ),
    "per_variant_scores": (
        r"compute_score_(influence|nearest)|nearest_relevant"
        r"|_set_influence_bound|SCORE_FNS",
        ALL_FILES, (),
    ),
    "per_entry_scoring_in_core": (
        r"\.(relevant|leaf_score|node_bound)\(",
        ("src/repro/core/**/*.py",), ("coherence.py",),
    ),
    "per_variant_stps": (
        r"stps_influence|stps_nearest|core\.influence\b"
        r"|_combo_influence_bound\b",
        ALL_FILES, (),
    ),
    "scalar_bulk_keys": (
        r"hilbert_key_2d|hilbert_key_4d|_unit_key|bulk_sort_key\b",
        ALL_FILES, (),
    ),
    "second_log_or_sampler": (
        r"slog|ResourceSampler|timeline_spec",
        PY_FILES, (),
    ),
    "operations_console": (
        r"repro\.obs\.(slo|timeseries|profiler|resources)"
        r"|import (slo|timeseries|profiler|resources)\b"
        r"|^\s+(slo|timeseries|profiler|resources),$"
        r"|from_slo_file|timeseries_payload|DASHBOARD_HTML"
        r"|live_(executors|caches|services|segments)|estimated_bytes"
        r"|(add|remove)_hook|--telemetry|--slo",
        ALL_FILES, (),
    ),
    "ir_tree": (r"irtree|IRTree|ablation_index", ALL_FILES, ()),
    # STPS asks the query's variant object; only the one lookup in
    # core/stps.py names a variant.
    "variant_branches": (
        r"within_2r|self\.influence|is (not )?Variant\.",
        ("src/repro/core/stps.py", "src/repro/core/combinations.py"), (),
    ),
    "iss": (r'ALGORITHM_ISS|influence_search|iss_probes|"iss"', ALL_FILES, ()),
    # One class of finished work (``requests.RequestTrace``) and one
    # writer; ``/flight.json`` and ``--flight-out`` are views of it.
    "second_record": (
        r"QueryRecord|maybe_record|record_error|record_rejection"
        r"|repro\.obs\.flight|import flight\b|flight as _flight"
        r"|\b_?flight\.[a-z_]+\(",
        ALL_FILES, (),
    ),
    # Coherence asks the live dataset one floor question,
    # ``reaches(query, point, floor, skip)``: ``skip`` None is R5's
    # location, a set id R3's skip-set sum (no ``nearby`` flag);
    # ``core.bruteforce.object_score``, the definition, stays.
    "second_r5_scorer": (
        r"self\.object_score|live\.object_score|object_score: Callable"
        r"|nearby: bool|floor, nearby\b",
        ALL_FILES, (),
    ),
    "live_sharding": (
        r"LiveShardedDataset|live\.sharded|LiveBase|replace_manifest"
        r"|bump_epoch|_refresh_manifest|owning_shard_index"
        r"|halo_shard_indices|live_(relocations|refreezes)_metric"
        r"|repro_live_(relocations|refreezes)_total|save_shards"
        r"|load_shards|from_specs|_thaw_pagefile",
        ALL_FILES, (),
    ),
    # Shards run on the caller's thread: no worker processes, no
    # shared-memory pages, no memory-mapped reads, no standing-query
    # monitor beside the result cache.
    "process_fanout": (
        r"ProcessShardRunner|SharedMemoryPageFile|process_runner"
        r"|freeze_shard|open_tree|fanout=|start_method|FANOUT_MODES"
        r"|mmap_reads|TopKMonitor|register_at_fork",
        ALL_FILES, (),
    ),
    # Prose about "pulling rounds" and "the prioritized pulling
    # strategy" stays; a pulling option or label does not.
    "pulling_strategy": (
        r"PULL_(PRIORITIZED|ROUND_ROBIN)|PULLING_STRATEGIES|round.robin"
        r"|ablation_pulling|enforce_2r"
        r"|(?<!prioritized )\bpulling\b(?! (round|strateg))",
        ALL_FILES, (),
    ),
}


@pytest.mark.parametrize("case", sorted(REMOVED))
def test_removed_names_stay_removed(case):
    pattern, globs, excluded = REMOVED[case]
    regex = re.compile(pattern, re.MULTILINE)
    hits = []
    for glob in globs:
        for path in sorted(REPO.glob(glob)):
            if not path.is_file() or path.name in excluded:
                continue
            data = path.read_bytes()
            if b"\0" in data:  # binary
                continue
            text = data.decode("utf-8", errors="replace")
            for match in regex.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                hits.append(f"{path.relative_to(REPO)}:{line}")
    assert not hits, hits


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_error_hierarchy(self):
        from repro import errors

        for name in (
            "GeometryError",
            "StorageError",
            "PageNotFoundError",
            "PageCorruptedError",
            "PageOverflowError",
            "IndexError_",
            "VocabularyError",
            "QueryError",
            "DatasetError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_subpackage_alls_resolve(self):
        import repro.bench as bench
        import repro.core as core
        import repro.data as data
        import repro.geometry as geometry
        import repro.hilbert as hilbert
        import repro.index as index
        import repro.model as model
        import repro.storage as storage
        import repro.text as text

        for module in (
            bench, core, data, geometry, hilbert, index, model, storage, text
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (
                    module.__name__,
                    name,
                )

    def test_query_path_keeps_its_switches_closed(self):
        """No caller ever set these, so the engines stopped taking them;
        before one grows back, ``grep -rn "<param>=" src benchmarks
        examples`` must show a workload that needs it."""
        import inspect

        import repro.index.leafdata as leafdata
        from repro.core.executor import QueryExecutor
        from repro.core.processor import QueryProcessor
        from repro.shard import ShardedQueryProcessor

        closed = {"batch_size", "parallelism", "profile"}
        for func in (
            QueryProcessor.query,
            QueryProcessor.explain,
            QueryProcessor.query_many,
            QueryExecutor.__init__,
            QueryExecutor.query_many,
            QueryExecutor.execute_one,
            QueryExecutor.run,
            ShardedQueryProcessor.query,
            ShardedQueryProcessor.explain,
            ShardedQueryProcessor.query_many,
        ):
            taken = closed & set(inspect.signature(func).parameters)
            assert not taken, (func.__qualname__, taken)
        # A one-shot batch has no second caller to gate, and the private
        # channel between run() and query_many() is gone.
        for func in (
            QueryProcessor.query_many, ShardedQueryProcessor.query_many,
        ):
            assert "max_workers" not in inspect.signature(func).parameters
        assert not [
            name for name in inspect.signature(
                QueryExecutor.query_many
            ).parameters if name.startswith("_")
        ]
        # Shards run on the caller's thread; nothing picks a process pool.
        process_only = {"fanout", "start_method", "max_workers", "manifests"}
        for func in (
            ShardedQueryProcessor.__init__, ShardedQueryProcessor.build,
        ):
            taken = process_only & set(inspect.signature(func).parameters)
            assert not taken, (func.__qualname__, taken)
        assert not [name for name in dir(leafdata) if "vectorized" in name]

    def test_one_best_first_probe(self):
        """Algorithm 2 under every variant and the Voronoi competitor
        stream are one walk, ``probe``; ``compute_score`` is its first
        yield and the per-variant copies are gone."""
        import repro.core as core
        import repro.core.stds as stds
        import repro.core.voronoi as voronoi

        assert {"compute_score", "probe"} <= set(core.__all__)
        assert not {
            "compute_score_influence", "compute_score_nearest",
            "nearest_relevant",
        } & set(core.__all__)
        for module, names in (
            (stds, ("compute_score_influence", "compute_score_nearest",
                    "SCORE_FNS", "_dist")),
            (voronoi, ("nearest_relevant",)),
        ):
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)

    def test_one_stps_engine_for_every_variant(self):
        """``stps`` reads ``query.variant``; the per-variant entry points
        and the influence module are gone, and so is the scorer's
        either-kind dispatch."""
        import importlib.util

        import repro.core as core
        import repro.core.stps as stps
        from repro.index.feature_tree import FeatureScorer

        gone = {"stps_influence", "stps_nearest"}
        assert not gone & set(core.__all__)
        for module in (core, stps):
            for name in gone:
                assert not hasattr(module, name), (module.__name__, name)
        assert importlib.util.find_spec("repro.core.influence") is None
        assert not hasattr(FeatureScorer, "bound")
        assert not hasattr(FeatureScorer, "relevant")

    def test_one_vector_pass_per_bulk_load(self):
        """Bulk loads take every sort key from one
        ``HilbertCurve.encode_unit`` call; the per-entry key functions and
        hooks are gone."""
        import repro.hilbert as hilbert
        import repro.hilbert.curve as curve
        from repro.index.feature_tree import FeatureTree
        from repro.index.ir2 import IR2Tree
        from repro.index.srt import SRTIndex

        assert hasattr(curve.HilbertCurve, "encode_unit")
        gone = {"hilbert_key_2d", "hilbert_key_4d", "_unit_key"}
        assert not gone & set(hilbert.__all__)
        for module in (hilbert, curve):
            for name in gone:
                assert not hasattr(module, name), (module.__name__, name)
        for cls in (FeatureTree, SRTIndex, IR2Tree):
            assert not hasattr(cls, "bulk_sort_key"), cls.__name__
            assert hasattr(cls, "bulk_sort_keys"), cls.__name__

    def test_standing_answers_replay_the_datasets_own_log(self):
        """One mutation log, owned by the dataset: the result cache
        replays it, and nothing subscribes to a dataset's writes."""
        import repro.live as live
        from repro.serve.cache import ResultCache

        assert not {"TopKMonitor", "TopKDelta"} & set(live.__all__)
        assert hasattr(live.LiveDataset, "revalidate")
        assert not hasattr(live.LiveDataset, "add_mutation_listener")
        assert not hasattr(live.LiveDataset, "remove_mutation_listener")
        assert not hasattr(ResultCache, "bump")
        assert not hasattr(ResultCache, "attach_live")
