"""Public API surface tests."""

import repro


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
        from repro.shard.sharded_processor import FANOUT_MODES

        assert FANOUT_MODES == ("serial", "processes")
        assert not [name for name in dir(leafdata) if "vectorized" in name]

    def test_standing_answers_replay_the_datasets_own_log(self):
        """One mutation log, owned by the dataset: the monitor lives with
        it, and nothing subscribes to a dataset's writes."""
        import repro.live as live
        from repro.serve.cache import ResultCache

        assert {"TopKMonitor", "TopKDelta"} <= set(live.__all__)
        assert not hasattr(live.LiveBase, "add_mutation_listener")
        assert not hasattr(live.LiveBase, "remove_mutation_listener")
        assert not hasattr(ResultCache, "bump")
        assert not hasattr(ResultCache, "attach_live")
