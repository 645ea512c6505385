"""Live mutations over a sharded engine: routing, re-halo, refreeze.

:class:`LiveShardedDataset` extends the single-node write-through model
(:mod:`repro.live.dataset`) to a
:class:`~repro.shard.ShardedQueryProcessor`:

* **objects** live in exactly one shard — the one whose assignment
  region contains them (:func:`~repro.shard.partitioner.owning_shard_index`,
  same boundary tie-break as the build-time partition);
* **features** live in every shard whose r-halo covers them
  (:func:`~repro.shard.partitioner.halo_shard_indices`); a move that
  changes this replica set deletes the feature from shards it left and
  inserts it into shards it entered — *re-halo* — so the partitioner's
  safety invariant (every shard sees all features within ``r`` of its
  region) survives arbitrary movement.  Re-halos are counted in
  ``repro_live_relocations_total`` and on :attr:`relocations`.

Thread-mode shards mutate in place: their trees sit on ordinary
writable page files and the tree layer already invalidates every cache
write-through.  Process-mode shards sit on *frozen* shared-memory
segments (read-only by protocol), so mutation uses copy-on-write at
shard granularity:

1. **thaw** — on a shard's first mutation its pages are copied out of
   shared memory into a writable in-memory page file and the shard's
   parent-side processor is reopened over it (checksums re-verified
   page by page);
2. **mutate** — any number of further mutations hit the writable copy;
3. **refreeze** — before the next query, :meth:`LiveShardedDataset.flush`
   freezes each dirty shard into *fresh* segments, installs the new
   manifest on the sharded processor, bumps the cache epoch, and unlinks
   the old segments; workers see the new manifest on their next task and
   re-attach (:func:`repro.shard.process_runner._refresh_manifest`).

Amortization is the point: a burst of mutations costs one thaw and one
refreeze per touched shard, not one per mutation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.errors import DatasetError, ShardError
from repro.index.reopen import open_tree
from repro.live.dataset import (
    LiveBase,
    feature_entry,
    live_refreezes_metric,
    live_relocations_metric,
    object_entry,
)
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.obs import tracing as _tracing
from repro.shard.partitioner import halo_shard_indices, owning_shard_index
from repro.shard.process_runner import freeze_shard
from repro.shard.sharded_processor import ShardedQueryProcessor
from repro.storage.pagefile import MemoryPageFile, PageFile
from repro.storage.shm import SharedMemoryPageFile


def _thaw_pagefile(frozen: PageFile) -> MemoryPageFile:
    """Writable in-memory copy of a frozen page file's pages.

    Round-trips every page through ``read``/``write``, so each image's
    CRC is verified as it leaves shared memory.
    """
    mem = MemoryPageFile(frozen.page_size)
    for page_id in range(frozen.page_count):
        mem.allocate()
        mem.write(frozen.read(page_id))
    return mem


class LiveShardedDataset(LiveBase):
    """A :class:`ShardedQueryProcessor` under live mutation.

    Build it like the processor itself::

        live = LiveShardedDataset.build(
            objects, feature_sets, shards=4, radius=0.05
        )
        live.move_feature(0, fid, x, y)   # re-halos across shards
        result = live.query(query)        # == rebuilt-from-scratch

    Restrictions inherited from the partition: with halo replication an
    object insert must land inside some shard's assignment region (the
    halo only covers ``bbox + r``, so an object outside every region
    could see features no shard replicated); full replication accepts
    inserts anywhere.  Queries keep the processor's own shape checks.
    """

    def __init__(
        self,
        processor: ShardedQueryProcessor,
        objects: ObjectDataset,
        feature_sets: Sequence[FeatureDataset],
    ) -> None:
        n_sets = len(processor.shards[0].processor.feature_trees)
        if len(feature_sets) != n_sets:
            raise DatasetError(
                f"{len(feature_sets)} feature sets given, shards have "
                f"{n_sets} feature trees"
            )
        self.processor = processor
        self._init_mirrors(objects, feature_sets)
        #: Feature moves whose shard replica set changed (re-halos).
        self.relocations = 0
        #: Shard refreezes shipped to process-mode workers.
        self.refreezes = 0
        # Shard membership, by *list index* into processor.shards:
        # objects live in exactly one shard, features in their halo set.
        self._object_shard: dict[int, int] = {}
        self._feature_shards: list[dict[int, set[int]]] = [
            {} for _ in feature_sets
        ]
        for i, spec in enumerate(processor.specs):
            for o in spec.objects:
                self._object_shard[o.oid] = i
            for set_id, fs in enumerate(spec.feature_sets):
                for f in fs:
                    self._feature_shards[set_id].setdefault(
                        f.fid, set()
                    ).add(i)
        # Process-mode copy-on-write state: shards thawed but not yet
        # refrozen, and the frozen segments they replaced (closed on
        # flush, once the new manifest is installed).
        self._dirty: set[int] = set()
        self._retired: list[SharedMemoryPageFile] = []

    @classmethod
    def build(
        cls,
        objects: ObjectDataset,
        feature_sets: Sequence[FeatureDataset],
        **kwargs,
    ) -> "LiveShardedDataset":
        """Partition + build + wrap (kwargs → ``ShardedQueryProcessor.build``)."""
        processor = ShardedQueryProcessor.build(
            objects, feature_sets, **kwargs
        )
        return cls(processor, objects, feature_sets)

    # ------------------------------------------------------------------
    # copy-on-write (process mode)
    # ------------------------------------------------------------------
    def _writable_shard(self, idx: int):
        """The shard's processor, thawed if its storage is frozen."""
        shard = self.processor.shards[idx]
        pagefile = shard.processor.object_tree.pagefile
        if not isinstance(pagefile, SharedMemoryPageFile):
            return shard.processor
        with _tracing.span("live.thaw", cat="live", shard=idx):
            trees = []
            for tree in shard.processor.trees():
                frozen = tree.pagefile
                trees.append(
                    open_tree(_thaw_pagefile(frozen), tree.node_cache.capacity)
                )
                self._retired.append(frozen)
            from repro.core.processor import QueryProcessor

            shard.processor = QueryProcessor(trees[0], trees[1:])
        self._dirty.add(idx)
        return shard.processor

    def flush(self) -> int:
        """Refreeze dirty shards and publish them to worker processes.

        Returns the number of shards refrozen (0 in serial mode and when
        nothing mutated).  Called automatically by :meth:`query`.
        """
        if not self._dirty:
            return 0
        with self._lock:
            dirty, self._dirty = sorted(self._dirty), set()
            if not dirty:
                return 0
            refrozen = 0
            with _tracing.span("live.refreeze", cat="live", shards=len(dirty)):
                for idx in dirty:
                    shard = self.processor.shards[idx]
                    buffer_pages = shard.processor.object_tree.node_cache.capacity
                    frozen_proc, manifest = freeze_shard(
                        shard.spec.geometry(), shard.processor, buffer_pages
                    )
                    shard.processor = frozen_proc
                    self.processor.replace_manifest(idx, manifest)
                    refrozen += 1
            # New segments are live and the manifests point at them:
            # workers re-attach on their next task.  Unlink the old
            # segments (still-mapped workers keep reading their copy
            # until they refresh — POSIX keeps unlinked segments alive
            # while mapped).
            retired, self._retired = self._retired, []
            for segment in retired:
                segment.close()
            self.processor.bump_epoch()
            self.refreezes += refrozen
            live_refreezes_metric().inc(refrozen)
            return refrozen

    # ------------------------------------------------------------------
    # index write hooks
    # ------------------------------------------------------------------
    def _index_insert_object(self, o: DataObject) -> None:
        specs = self.processor.specs
        point = (o.x, o.y)
        idx = owning_shard_index(specs, point)
        if (
            not math.isinf(self.processor.radius)
            and specs[idx].bbox.mindist(point) > 0.0
        ):
            raise ShardError(
                specs[idx].shard_id,
                f"object {o.oid} at {point} lies outside every shard "
                "region; its halo-replicated feature view would be "
                "incomplete — rebuild the partition or use "
                "replication='full'",
            )
        self._writable_shard(idx).object_tree.insert(object_entry(o))
        self._object_shard[o.oid] = idx

    def _index_delete_object(self, o: DataObject) -> None:
        idx = self._object_shard.pop(o.oid)
        tree = self._writable_shard(idx).object_tree
        if not tree.delete(object_entry(o)):
            raise DatasetError(
                f"object {o.oid} mapped to shard {idx} but missing from "
                "its tree — membership/index divergence"
            )

    def _index_insert_feature(self, set_id: int, f: FeatureObject) -> None:
        indices = set(halo_shard_indices(self.processor.specs, (f.x, f.y)))
        entry = feature_entry(f)
        for idx in sorted(indices):
            self._writable_shard(idx).feature_trees[set_id].insert(entry)
        self._feature_shards[set_id][f.fid] = indices

    def _index_delete_feature(self, set_id: int, f: FeatureObject) -> None:
        indices = self._feature_shards[set_id].pop(f.fid)
        entry = feature_entry(f)
        for idx in sorted(indices):
            tree = self._writable_shard(idx).feature_trees[set_id]
            if not tree.delete(entry):
                raise DatasetError(
                    f"feature {f.fid} mapped to shard {idx} but missing "
                    f"from its set-{set_id} tree — membership/index "
                    "divergence"
                )

    def _index_replace_feature(
        self, set_id: int, old: FeatureObject, new: FeatureObject
    ) -> None:
        old_set = self._feature_shards[set_id].pop(old.fid)
        new_set = set(
            halo_shard_indices(self.processor.specs, (new.x, new.y))
        )
        old_entry = feature_entry(old)
        new_entry = feature_entry(new)
        for idx in sorted(old_set):
            tree = self._writable_shard(idx).feature_trees[set_id]
            if not tree.delete(old_entry):
                raise DatasetError(
                    f"feature {old.fid} mapped to shard {idx} but missing "
                    f"from its set-{set_id} tree — membership/index "
                    "divergence"
                )
        for idx in sorted(new_set):
            self._writable_shard(idx).feature_trees[set_id].insert(new_entry)
        self._feature_shards[set_id][new.fid] = new_set
        if new_set != old_set:
            self.relocations += 1
            live_relocations_metric().inc()

    # ------------------------------------------------------------------
    # query passthrough
    # ------------------------------------------------------------------
    def query(self, query, **kwargs):
        """Flush pending refreezes, then fan the query out (see processor)."""
        self.flush()
        return self.processor.query(query, **kwargs)

    def explain(self, query, **kwargs):
        self.flush()
        return self.processor.explain(query, **kwargs)

    def clear_buffers(self) -> dict[str, int]:
        return self.processor.clear_buffers()

    def close(self) -> None:
        """Close the processor and any segments retired but not flushed."""
        retired, self._retired = self._retired, []
        for segment in retired:
            segment.close()
        self.processor.close()

    def __enter__(self) -> "LiveShardedDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # self-checks
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Validate every shard tree and the membership bookkeeping."""
        per_shard_objects = [0] * len(self.processor.shards)
        for idx in self._object_shard.values():
            per_shard_objects[idx] += 1
        per_shard_features = [
            [0] * len(self._features) for _ in self.processor.shards
        ]
        for set_id, members in enumerate(self._feature_shards):
            for indices in members.values():
                for idx in indices:
                    per_shard_features[idx][set_id] += 1
        if len(self._object_shard) != len(self._objects):
            raise DatasetError(
                f"{len(self._object_shard)} objects routed, mirror has "
                f"{len(self._objects)}"
            )
        for set_id, members in enumerate(self._feature_shards):
            if members.keys() != self._features[set_id].keys():
                raise DatasetError(
                    f"feature set {set_id}: routed ids differ from mirror"
                )
        for idx, shard in enumerate(self.processor.shards):
            tree = shard.processor.object_tree
            tree.validate()
            if tree.count != per_shard_objects[idx]:
                raise DatasetError(
                    f"shard {idx} object tree holds {tree.count} entries, "
                    f"membership says {per_shard_objects[idx]}"
                )
            for set_id, ftree in enumerate(shard.processor.feature_trees):
                ftree.validate()
                if ftree.count != per_shard_features[idx][set_id]:
                    raise DatasetError(
                        f"shard {idx} set-{set_id} tree holds "
                        f"{ftree.count} entries, membership says "
                        f"{per_shard_features[idx][set_id]}"
                    )
