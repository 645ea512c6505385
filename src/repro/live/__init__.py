"""Live index updates: mutate a built engine, keep answers exact.

:class:`LiveDataset` wraps a single-node
:class:`~repro.core.processor.QueryProcessor` with a mutation API
(``insert/delete/move/rescore`` for features, ``insert/delete`` for
objects) that writes through the trees' aggregates and caches, so
queries after any mutation sequence return exactly what a
rebuilt-from-scratch index would (the incremental-vs-rebuild
differential oracle in ``tests/live`` enforces this at 1e-9).  Sharded
processors (:mod:`repro.shard`) serve a read-only partition: to change
one, rebuild it.

The dataset keeps one log of its last :data:`DELTA_LOG` mutation
deltas; :meth:`LiveDataset.revalidate` replays it to prove a known
top-k still right.  The serving layer's result cache
(:mod:`repro.serve.cache`) rests on it: it re-runs a query only when a
write may have changed its answer.
"""

from repro.live.dataset import (
    DELTA_LOG,
    LIVE_METRIC_FAMILIES,
    MUTATION_OPS,
    LiveDataset,
    Mutation,
    feature_entry,
    object_entry,
)

__all__ = [
    "DELTA_LOG",
    "LIVE_METRIC_FAMILIES",
    "MUTATION_OPS",
    "LiveDataset",
    "Mutation",
    "feature_entry",
    "object_entry",
]
