"""Tests for the node cache — the one cache between a tree and its pages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.index.nodes import ObjectLeafEntry
from repro.index.object_rtree import ObjectRTree
from repro.storage.pagefile import MemoryPageFile
from tests.conftest import make_data_objects


def _small_tree(buffer_pages: int) -> tuple[ObjectRTree, list[int]]:
    """A multi-page tree on a cold cache, plus its leaf page ids."""
    tree = ObjectRTree.build(
        make_data_objects(120, seed=50),
        pagefile=MemoryPageFile(page_size=256),
        buffer_pages=buffer_pages,
    )
    leaves = [leaf.page_id for leaf in tree.iter_leaves()]
    assert len(leaves) >= 8
    tree.clear_cache()
    tree.stats.reset()
    return tree, leaves


class TestLRU:
    """LRU, write-through, invalidation and capacity of the one cache."""

    def test_eviction_and_recency(self):
        tree, (a, b, c, *_) = _small_tree(buffer_pages=2)
        tree.read_node(a)
        tree.read_node(b)
        tree.read_node(a)  # a becomes most recent
        tree.read_node(c)  # evicts b, not a
        assert a in tree.node_cache and c in tree.node_cache
        assert b not in tree.node_cache
        assert tree.stats.reads == 3
        tree.read_node(b)  # physical again
        assert tree.stats.reads == 4

    def test_write_through_visibility(self):
        tree, (a, *_) = _small_tree(buffer_pages=4)
        node = tree.read_node(a)
        node.entries = node.entries[:1]
        tree.stats.reset()
        tree.write_node(node)
        assert tree.stats.writes == 1
        # The page file holds the new image ...
        assert tree.pagefile.read(a).payload == node.payload
        tree.stats.reset()
        # ... and the next read is served from the cache, with it.
        again = tree.read_node(a)
        assert tree.stats.reads == 0
        assert again.payload == node.payload
        assert len(again.entries) == 1

    def test_invalidate_forces_physical_read(self):
        tree, (a, *_) = _small_tree(buffer_pages=4)
        tree.read_node(a)
        tree.node_cache.invalidate(a)
        tree.read_node(a)
        assert tree.stats.reads == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(StorageError):
            ObjectRTree(buffer_pages=-1)

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_any_access_pattern_is_correct_and_bounded(self, accesses):
        tree, leaves = _small_tree(buffer_pages=3)
        stored = {p: tree.pagefile.read(p).payload for p in leaves[:8]}
        tree.stats.reset()
        for i in accesses:
            page_id = leaves[i]
            assert tree.read_node(page_id).payload == stored[page_id]
            assert len(tree.node_cache) <= 3
        assert tree.stats.reads + tree.stats.buffer_hits == len(accesses)


class TestNodeCacheCoherence:
    def test_read_after_insert_sees_update(self):
        tree = ObjectRTree.build(make_data_objects(100, seed=51))
        tree.insert(ObjectLeafEntry(999, 0.5, 0.5))
        # Cached nodes must reflect the mutation immediately.
        got = [e.oid for e in tree.range_search((0.5, 0.5), 1e-9)]
        assert 999 in got

    def test_read_after_delete_sees_update(self):
        objects = make_data_objects(100, seed=52)
        tree = ObjectRTree.build(objects)
        victim = objects[0]
        tree.delete(ObjectLeafEntry(victim.oid, victim.x, victim.y))
        got = [e.oid for e in tree.range_search((victim.x, victim.y), 1e-12)]
        assert victim.oid not in got

    def test_cache_hit_counts_as_buffer_hit(self):
        tree = ObjectRTree.build(make_data_objects(100, seed=53))
        tree.clear_cache()
        tree.stats.reset()
        root_id = tree.root_id
        tree.read_node(root_id)
        assert tree.stats.reads >= 1
        before_hits = tree.stats.buffer_hits
        tree.read_node(root_id)
        assert tree.stats.buffer_hits == before_hits + 1
        assert tree.stats.reads >= 1  # no extra physical read

    def test_clear_cache_forces_decode_and_read(self):
        tree = ObjectRTree.build(make_data_objects(100, seed=54))
        tree.read_node(tree.root_id)
        tree.clear_cache()
        tree.stats.reset()
        tree.read_node(tree.root_id)
        assert tree.stats.reads == 1

    def test_capacity_bounded(self):
        tree = ObjectRTree(MemoryPageFile(page_size=256), buffer_pages=4)
        for o in make_data_objects(300, seed=55):
            tree.insert(ObjectLeafEntry(o.oid, o.x, o.y))
        assert len(tree._node_cache) <= 4

    def test_queries_identical_with_and_without_cache(self):
        objects = make_data_objects(400, seed=56)
        warm = ObjectRTree.build(objects)
        warm_result = sorted(
            e.oid for e in warm.range_search((0.4, 0.6), 0.2)
        )
        cold = ObjectRTree.build(objects)
        cold.clear_cache()
        cold_result = sorted(
            e.oid for e in cold.range_search((0.4, 0.6), 0.2)
        )
        assert warm_result == cold_result


class TestExplicitInvalidation:
    def test_write_node_invalidates_stale_decode(self):
        """A cached decode must never survive a page rewrite."""
        tree = ObjectRTree.build(make_data_objects(120, seed=57))
        # Find a leaf and warm the cache with it.
        node = tree.read_node(tree.root_id)
        while not node.is_leaf:
            node = tree.read_node(node.entries[0].child)
        assert node.page_id in tree.node_cache
        stale = tree.read_node(node.page_id)
        n_before = len(stale.entries)
        # Rewrite the page with one entry removed.
        node.entries = node.entries[:-1]
        tree.write_node(node)
        fresh = tree.read_node(node.page_id)
        assert len(fresh.entries) == n_before - 1
        # And a cold read (cache cleared) agrees with the cached view.
        tree.clear_cache()
        cold = tree.read_node(node.page_id)
        assert [e.oid for e in cold.entries] == [e.oid for e in fresh.entries]

    def test_insert_updates_visible_through_cache(self):
        tree = ObjectRTree.build(make_data_objects(150, seed=58))
        # Warm every node into the cache.
        list(tree.iter_leaf_entries())
        tree.insert(ObjectLeafEntry(7777, 0.25, 0.75))
        assert 7777 in [e.oid for e in tree.range_search((0.25, 0.75), 1e-9)]
        tree.validate()


class TestCapacityZeroParity:
    def test_disabled_cache_same_results(self):
        objects = make_data_objects(400, seed=59)
        cached = ObjectRTree.build(objects)
        uncached = ObjectRTree.build(objects, buffer_pages=0)
        assert len(uncached._node_cache) == 0
        got_cached = sorted(e.oid for e in cached.range_search((0.3, 0.7), 0.15))
        got_uncached = sorted(
            e.oid for e in uncached.range_search((0.3, 0.7), 0.15)
        )
        assert got_cached == got_uncached
        # Every lookup missed; nothing was ever retained.
        assert uncached.node_cache.hits == 0
        assert len(uncached.node_cache) == 0

    def test_query_parity_with_cache_disabled(self, objects, feature_sets):
        from repro.core.processor import QueryProcessor
        from repro.core.query import PreferenceQuery

        query = PreferenceQuery(
            k=5, radius=0.1, lam=0.5, keyword_masks=(0b111, 0b101)
        )
        warm = QueryProcessor.build(objects, feature_sets)
        cold = QueryProcessor.build(objects, feature_sets)
        cold.object_tree.node_cache.capacity = 0
        for tree in cold.feature_trees:
            tree.node_cache.capacity = 0
        cold.clear_buffers()
        for algorithm in ("stps", "stds"):
            a = warm.query(query, algorithm=algorithm)
            b = cold.query(query, algorithm=algorithm)
            assert a.oids == b.oids
            assert a.scores == b.scores


class TestClearBuffers:
    def test_clear_buffers_empties_every_tree(self, srt_processor):
        from repro.core.query import PreferenceQuery

        query = PreferenceQuery(
            k=5, radius=0.1, lam=0.5, keyword_masks=(0b11, 0b11)
        )
        srt_processor.query(query)
        trees = [srt_processor.object_tree] + srt_processor.feature_trees
        cached = sum(len(t.node_cache) for t in trees)
        assert cached > 0
        assert srt_processor.clear_buffers() == {"nodes": cached}
        assert all(len(t.node_cache) == 0 for t in trees)


class TestAccountingInvariant:
    def test_logical_reads_consistent(self, srt_processor):
        from repro.core.query import PreferenceQuery

        srt_processor.clear_buffers()
        srt_processor.reset_stats()
        query = PreferenceQuery(
            k=5, radius=0.1, lam=0.5, keyword_masks=(0b11, 0b11)
        )
        result = srt_processor.query(query)
        stats_sum = srt_processor.object_tree.stats.logical_reads + sum(
            t.stats.logical_reads for t in srt_processor.feature_trees
        )
        assert result.stats.io_reads + result.stats.buffer_hits == stats_sum
        assert result.stats.io_time_s == pytest.approx(
            result.stats.io_reads
            * srt_processor.object_tree.stats.page_read_cost_s
        )

    def test_node_cache_counters_in_query_stats(self, srt_processor):
        from repro.core.query import PreferenceQuery

        srt_processor.clear_buffers()
        srt_processor.reset_stats()
        query = PreferenceQuery(
            k=5, radius=0.1, lam=0.5, keyword_masks=(0b11, 0b11)
        )
        cold = srt_processor.query(query)
        # The cold run decodes every node it touches at least once.
        assert cold.stats.node_cache_misses > 0
        warm = srt_processor.query(query)
        # The warm run serves the hot upper levels from the node cache.
        assert warm.stats.node_cache_hits > 0
        assert warm.stats.node_cache_hit_rate > 0.5
        assert (
            warm.stats.node_cache_misses < cold.stats.node_cache_misses
            or warm.stats.node_cache_misses == 0
        )
