"""Live index updates: mutate a built engine, keep answers exact.

:class:`LiveDataset` wraps a single-node
:class:`~repro.core.processor.QueryProcessor`, :class:`LiveShardedDataset`
a :class:`~repro.shard.ShardedQueryProcessor`; both expose the same
mutation API (``insert/delete/move/rescore`` for features,
``insert/delete`` for objects) with write-through aggregate maintenance
and cache invalidation, so queries after any mutation sequence return
exactly what a rebuilt-from-scratch index would (the
incremental-vs-rebuild differential oracle in ``tests/live`` enforces
this at 1e-9).

Each dataset keeps one log of its last :data:`DELTA_LOG` mutation
deltas; :meth:`LiveBase.revalidate` replays it to prove a known top-k
still right.  Standing answers rest on it: :class:`TopKMonitor` (a
continuous top-k over a mutation stream) and the serving layer's
result cache (:mod:`repro.serve.cache`) re-run a query only when a
write may have changed its answer.
"""

from repro.live.dataset import (
    DELTA_LOG,
    LIVE_METRIC_FAMILIES,
    MUTATION_OPS,
    LiveBase,
    LiveDataset,
    Mutation,
    feature_entry,
    object_entry,
)
from repro.live.monitor import TopKDelta, TopKMonitor
from repro.live.sharded import LiveShardedDataset

__all__ = [
    "DELTA_LOG",
    "LIVE_METRIC_FAMILIES",
    "MUTATION_OPS",
    "LiveBase",
    "LiveDataset",
    "LiveShardedDataset",
    "Mutation",
    "TopKDelta",
    "TopKMonitor",
    "feature_entry",
    "object_entry",
]
