"""Tests for repro.obs.resources: gauges, live registries, sampler."""

from __future__ import annotations

import functools
import gc
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import GAUGES, collect
from repro.obs.timeseries import Sampler, TimeSeriesRing


class TestCollect:
    def test_all_gauges_published(self):
        reg = MetricsRegistry()
        values = collect(reg)
        published = {f.name for f in reg.families()}
        assert set(GAUGES) <= published
        assert set(values) == set(GAUGES)

    def test_process_facts_sane(self):
        reg = MetricsRegistry()
        values = collect(reg)
        assert values["repro_resource_rss_bytes"] > 1 << 20  # > 1 MiB
        assert values["repro_resource_open_fds"] >= 3  # stdio at least
        assert values["repro_resource_threads"] >= 1

    def test_executor_queue_depth_visible(self):
        from repro.core.executor import QueryExecutor
        from repro.core.processor import QueryProcessor
        from repro.data.synthetic import (
            synthetic_feature_sets,
            synthetic_objects,
        )

        processor = QueryProcessor.build(
            synthetic_objects(120, seed=3),
            synthetic_feature_sets(2, 80, 32, seed=4),
        )
        reg = MetricsRegistry()
        with QueryExecutor(processor, max_workers=2):
            values = collect(reg)
            # Idle executor: registered, zero queued/running.
            assert values["repro_resource_executor_queue_depth"] == 0
            assert values["repro_resource_executor_running"] == 0
        gc.collect()
        values = collect(reg)
        assert values["repro_resource_executor_queue_depth"] == 0

    def test_shm_bytes_track_live_segments(self):
        from repro.storage.pagefile import MemoryPageFile
        from repro.storage.shm import SharedMemoryPageFile

        source = MemoryPageFile(page_size=512)
        source.allocate()
        reg = MetricsRegistry()
        before = collect(reg)["repro_resource_shm_bytes"]
        frozen = SharedMemoryPageFile.freeze(source)
        try:
            during = collect(reg)["repro_resource_shm_bytes"]
            assert during >= before + 512
        finally:
            frozen.close()
        after = collect(reg)["repro_resource_shm_bytes"]
        assert after == before

    def test_cache_bytes_estimated(self):
        from repro.core.processor import QueryProcessor
        from repro.core.query import PreferenceQuery
        from repro.data.synthetic import (
            synthetic_feature_sets,
            synthetic_objects,
        )

        processor = QueryProcessor.build(
            synthetic_objects(200, seed=5),
            synthetic_feature_sets(2, 100, 32, seed=6),
        )
        processor.clear_buffers()  # cached nodes below come from page reads
        processor.query(PreferenceQuery(5, 0.08, 0.5, (0b11, 0b11)))
        cache = processor.object_tree.node_cache
        leaves = [n for n in map(cache.peek, cache.page_ids()) if n.is_leaf]
        assert leaves and all(leaf._entries is None for leaf in leaves)
        reg = MetricsRegistry()
        values = collect(reg)
        assert values["repro_resource_node_cache_nodes"] > 0
        assert values["repro_resource_node_cache_bytes"] > 0
        # Sampling reports the payloads held; it builds no entry objects.
        assert all(leaf._entries is None for leaf in leaves)


class TestResourceSampler:
    """``collect`` as a ``pre_sample`` hook of the time-series Sampler."""

    def test_gauges_land_in_ring_slots(self):
        reg = MetricsRegistry()
        ring = TimeSeriesRing(registry=reg, capacity=64)
        with Sampler(ring, interval_s=0.02,
                     pre_sample=(functools.partial(collect, reg),)):
            time.sleep(0.08)
        assert len(ring) >= 3
        rss = ring.latest_gauge("repro_resource_rss_bytes")
        assert rss is not None and rss > 0
        timeline = ring.timeline(gauge_names=("repro_resource_threads",))
        assert timeline[-1]["gauges"]["repro_resource_threads"] >= 1

    def test_extra_pre_sample_hooks_compose(self):
        reg = MetricsRegistry()
        ring = TimeSeriesRing(registry=reg, capacity=64)
        calls = []
        sampler = Sampler(
            ring, interval_s=0.02,
            pre_sample=(functools.partial(collect, reg),
                        lambda: calls.append(1)),
        )
        with sampler:
            time.sleep(0.06)
        assert calls
        assert ring.latest_gauge("repro_resource_rss_bytes") is not None
