"""Sharded query engine.

Partitions the object dataset into ``S`` spatial shards with
halo-replicated feature sets (:mod:`repro.shard.partitioner`) and fans
queries across per-shard :class:`~repro.core.processor.QueryProcessor`
instances with cross-shard threshold propagation and shard-level pruning
(:mod:`repro.shard.sharded_processor`).  Results are bit-identical to an
unsharded processor for every supported query shape.
"""

from repro.shard.partitioner import (
    PARTITION_METHODS,
    REPLICATION_MODES,
    ShardSpec,
    grid_factors,
    grid_regions,
    kd_split,
    partition,
)
from repro.shard.sharded_processor import ShardedQueryProcessor

__all__ = [
    "PARTITION_METHODS",
    "REPLICATION_MODES",
    "ShardSpec",
    "ShardedQueryProcessor",
    "grid_factors",
    "grid_regions",
    "kd_split",
    "partition",
]
