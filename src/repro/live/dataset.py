"""Live (mutable) datasets layered over built indexes.

The indexes were build-once until this module: :class:`LiveDataset`
turns a built :class:`~repro.core.processor.QueryProcessor` into a
mutable world with a small, safe mutation API —

* ``insert_feature`` / ``delete_feature`` / ``move_feature`` /
  ``rescore_feature`` for feature objects,
* ``insert_object`` / ``delete_object`` for data objects.

Every mutation writes through the underlying R-trees
(:meth:`~repro.index.rtree_base.RTreeBase.insert` /
:meth:`~repro.index.rtree_base.RTreeBase.delete`), which recompute the
paper's per-node aggregates ``(e.s, e.W)`` bottom-up along the mutation
path and invalidate the node-cache entry and the per-leaf score memo
for every rewritten page
(``RTreeBase.write_node`` → ``Node.invalidate_arrays``).  Lemma 1's
pruning bound ``ŝ(e)`` therefore stays *exact* — never stale-tight —
after any mutation sequence; ``tests/live`` proves this with an
incremental-vs-rebuilt differential oracle and a stateful model checker.

Mutations also maintain an id-keyed mirror of the datasets, so a
brute-force shadow or a rebuilt-from-scratch index is always one
:meth:`~LiveDataset.objects_snapshot` / :meth:`~LiveDataset.feature_snapshots`
call away.

Every mutation bumps :attr:`~LiveDataset.version` and records its delta in
the dataset's one mutation log, the last :data:`DELTA_LOG` of them.
:meth:`~LiveDataset.revalidate` replays that log against a known answer
(:func:`repro.core.coherence.answer_survives`); the serving cache keeps
its answers current by it.

Concurrency model: one writer.  Mutations take an internal lock against
each other, but a mutation concurrent with a query may expose the query
to a half-updated tree — serialize externally (e.g. behind the
executor) when mixing.  Reading the log takes no lock.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.coherence import _RANGE_SLACK, answer_survives
from repro.core.processor import QueryProcessor
from repro.core.stds import reaches as stds_reaches
from repro.errors import DatasetError
from repro.index.nodes import FeatureLeafEntry, ObjectLeafEntry
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

#: Mutation kinds accepted by :meth:`LiveDataset.apply`.
MUTATION_OPS = (
    "insert_feature",
    "delete_feature",
    "move_feature",
    "rescore_feature",
    "insert_object",
    "delete_object",
)

#: Mutation deltas kept for replay.  An answer last proven more
#: mutations ago than this cannot be revalidated and is stale.
DELTA_LOG = 1024

#: Metric families owned by the live-update layer (reset scope).
LIVE_METRIC_FAMILIES = ("repro_live_mutations_total",)


def live_mutations_metric() -> "_metrics.MetricFamily":
    """Mutations applied, by target (``object``/``feature``) and op."""
    return _metrics.registry().counter(
        "repro_live_mutations_total",
        "Live-dataset mutations applied.",
        ("target", "op"),
    )


@dataclass(frozen=True, slots=True)
class Mutation:
    """One declarative mutation event (the feature-stream record).

    ``op`` is one of :data:`MUTATION_OPS`; the remaining fields are
    op-specific (``feature``/``set_id`` for feature inserts, ``fid`` for
    feature deletes, ``fid``/``x``/``y`` for moves, ``fid``/``score``
    for rescores, ``obj`` for object inserts, ``oid`` for object
    deletes).  :meth:`LiveDataset.apply` dispatches it.
    """

    op: str
    set_id: int = 0
    feature: FeatureObject | None = None
    obj: DataObject | None = None
    fid: int | None = None
    oid: int | None = None
    x: float | None = None
    y: float | None = None
    score: float | None = None


def feature_entry(feature: FeatureObject) -> FeatureLeafEntry:
    """The exact leaf entry a feature occupies in a feature tree."""
    return FeatureLeafEntry(
        feature.fid, feature.x, feature.y, feature.score,
        feature.keyword_mask(),
    )


def object_entry(obj: DataObject) -> ObjectLeafEntry:
    """The exact leaf entry a data object occupies in the object tree."""
    return ObjectLeafEntry(obj.oid, obj.x, obj.y)


class LiveDataset:
    """A :class:`QueryProcessor` under live mutation.

    Build it from raw datasets::

        live = LiveDataset.build(objects, feature_sets)
        live.insert_feature(0, FeatureObject(97, 0.2, 0.3, 0.9, {1, 4}))
        live.move_feature(0, 97, 0.7, 0.7)
        result = live.query(query)        # sees the mutations

    ``live.processor`` is an ordinary processor over the same trees, so
    every algorithm, the executor, EXPLAIN, and the observability stack
    work unchanged on a mutated index.  Besides the trees the dataset
    owns the id-keyed mirrors, validation, the mutation log and the
    mutation counter metrics.
    """

    def __init__(
        self,
        processor: QueryProcessor,
        objects: ObjectDataset,
        feature_sets: Sequence[FeatureDataset],
    ) -> None:
        if len(feature_sets) != len(processor.feature_trees):
            raise DatasetError(
                f"{len(feature_sets)} feature sets given, processor has "
                f"{len(processor.feature_trees)} feature trees"
            )
        self.processor = processor
        self._lock = threading.RLock()
        self._objects: dict[int, DataObject] = {o.oid: o for o in objects}
        self._features: list[dict[int, FeatureObject]] = [
            {f.fid: f for f in fs} for fs in feature_sets
        ]
        self._vocabularies = [fs.vocabulary for fs in feature_sets]
        self._labels = [fs.label for fs in feature_sets]
        #: Monotone mutation counter; bumped once per applied mutation.
        self.version = 0
        #: Ring of ``(version, delta)``: slot ``v % DELTA_LOG`` holds
        #: mutation ``v`` until mutation ``v + DELTA_LOG`` overwrites it.
        self._log: list[tuple[int, tuple] | None] = [None] * DELTA_LOG

    @classmethod
    def build(
        cls,
        objects: ObjectDataset,
        feature_sets: Sequence[FeatureDataset],
        **kwargs,
    ) -> "LiveDataset":
        """Build the indexes and wrap them (kwargs → ``QueryProcessor.build``)."""
        processor = QueryProcessor.build(objects, feature_sets, **kwargs)
        return cls(processor, objects, feature_sets)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check_set(self, set_id: int) -> None:
        if not 0 <= set_id < len(self._features):
            raise DatasetError(
                f"feature set {set_id} out of range "
                f"(have {len(self._features)} sets)"
            )

    def _check_new_feature(self, set_id: int, f: FeatureObject) -> None:
        if f.fid in self._features[set_id]:
            raise DatasetError(
                f"feature id {f.fid} already present in set {set_id}"
            )
        size = self._vocabularies[set_id].size
        bad = [k for k in f.keywords if k >= size]
        if bad:
            raise DatasetError(
                f"feature {f.fid} uses term ids {bad} outside the "
                f"{size}-term vocabulary"
            )

    def _existing_feature(self, set_id: int, fid: int) -> FeatureObject:
        try:
            return self._features[set_id][fid]
        except KeyError:
            raise DatasetError(
                f"unknown feature id {fid} in set {set_id}"
            ) from None

    # ------------------------------------------------------------------
    # index writes
    # ------------------------------------------------------------------
    def _delete_feature_entry(self, set_id: int, f: FeatureObject) -> None:
        if not self.processor.feature_trees[set_id].delete(feature_entry(f)):
            raise DatasetError(
                f"feature {f.fid} present in the mirror but missing from "
                f"index {set_id} — index/mirror divergence"
            )

    def _replace_feature(
        self, set_id: int, old: FeatureObject, new: FeatureObject
    ) -> None:
        """Move/rescore: delete the old entry, insert the new."""
        self._delete_feature_entry(set_id, old)
        self.processor.feature_trees[set_id].insert(feature_entry(new))

    # ------------------------------------------------------------------
    # mutation API
    # ------------------------------------------------------------------
    def insert_feature(self, set_id: int, feature: FeatureObject) -> None:
        """Add a new feature object to set ``set_id``."""
        with self._lock, _tracing.span(
            "live.mutate", cat="live", op="insert_feature", set_id=set_id
        ):
            self._check_set(set_id)
            self._check_new_feature(set_id, feature)
            self.processor.feature_trees[set_id].insert(
                feature_entry(feature)
            )
            self._features[set_id][feature.fid] = feature
            self._bump("feature", "insert", set_id, None, feature)

    def delete_feature(self, set_id: int, fid: int) -> FeatureObject:
        """Remove a feature by id; returns the removed object."""
        with self._lock, _tracing.span(
            "live.mutate", cat="live", op="delete_feature", set_id=set_id
        ):
            self._check_set(set_id)
            old = self._existing_feature(set_id, fid)
            self._delete_feature_entry(set_id, old)
            del self._features[set_id][fid]
            self._bump("feature", "delete", set_id, old, None)
            return old

    def move_feature(
        self, set_id: int, fid: int, x: float, y: float
    ) -> FeatureObject:
        """Relocate a feature; returns the updated object."""
        with self._lock, _tracing.span(
            "live.mutate", cat="live", op="move_feature", set_id=set_id
        ):
            self._check_set(set_id)
            old = self._existing_feature(set_id, fid)
            new = dataclasses.replace(old, x=x, y=y)
            self._replace_feature(set_id, old, new)
            self._features[set_id][fid] = new
            self._bump("feature", "move", set_id, old, new)
            return new

    def rescore_feature(
        self, set_id: int, fid: int, score: float
    ) -> FeatureObject:
        """Change a feature's quality score; returns the updated object."""
        with self._lock, _tracing.span(
            "live.mutate", cat="live", op="rescore_feature", set_id=set_id
        ):
            self._check_set(set_id)
            old = self._existing_feature(set_id, fid)
            new = dataclasses.replace(old, score=score)
            self._replace_feature(set_id, old, new)
            self._features[set_id][fid] = new
            self._bump("feature", "rescore", set_id, old, new)
            return new

    def insert_object(self, obj: DataObject) -> None:
        """Add a new data object."""
        with self._lock, _tracing.span(
            "live.mutate", cat="live", op="insert_object"
        ):
            if obj.oid in self._objects:
                raise DatasetError(f"object id {obj.oid} already present")
            self.processor.object_tree.insert(object_entry(obj))
            self._objects[obj.oid] = obj
            self._bump("object", "insert", None, None, obj)

    def delete_object(self, oid: int) -> DataObject:
        """Remove a data object by id; returns the removed object."""
        with self._lock, _tracing.span(
            "live.mutate", cat="live", op="delete_object"
        ):
            try:
                old = self._objects[oid]
            except KeyError:
                raise DatasetError(f"unknown data object id {oid}") from None
            if not self.processor.object_tree.delete(object_entry(old)):
                raise DatasetError(
                    f"object {oid} present in the mirror but missing from "
                    "the object tree — index/mirror divergence"
                )
            del self._objects[oid]
            self._bump("object", "delete", None, old, None)
            return old

    def apply(self, mutation: Mutation) -> None:
        """Dispatch one declarative :class:`Mutation` event."""
        op = mutation.op
        if op == "insert_feature":
            self.insert_feature(mutation.set_id, mutation.feature)
        elif op == "delete_feature":
            self.delete_feature(mutation.set_id, mutation.fid)
        elif op == "move_feature":
            self.move_feature(
                mutation.set_id, mutation.fid, mutation.x, mutation.y
            )
        elif op == "rescore_feature":
            self.rescore_feature(mutation.set_id, mutation.fid, mutation.score)
        elif op == "insert_object":
            self.insert_object(mutation.obj)
        elif op == "delete_object":
            self.delete_object(mutation.oid)
        else:
            raise DatasetError(
                f"unknown mutation op {op!r}; choose from {MUTATION_OPS}"
            )

    def _bump(
        self, target: str, op: str, set_id: int | None, old, new
    ) -> None:
        # Runs under the mutation lock, after the index write and mirror
        # update committed.  The delta is logged before the version that
        # names it is published: a reader never sees a version whose
        # delta is missing.
        version = self.version + 1
        self._log[version % DELTA_LOG] = (
            version, (target, op, set_id, old, new)
        )
        self.version = version
        live_mutations_metric().labels(target=target, op=op).inc()

    def deltas(self, since: int) -> list[tuple] | None:
        """The deltas of mutations ``since + 1 .. version``, oldest first,
        or None when some of them already fell off the log.

        A delta is ``(target, op, set_id, old, new)``: ``target`` is
        ``"feature"`` or ``"object"``, ``op`` the verb (``insert`` /
        ``delete`` / ``move`` / ``rescore``), ``set_id`` the feature set
        (None for objects), and ``old`` / ``new`` the
        :class:`FeatureObject` / :class:`DataObject` before and after
        (None on insert / delete respectively).
        """
        version = self.version
        if not 0 <= version - since <= DELTA_LOG:
            return None
        log = self._log
        out = []
        for v in range(since + 1, version + 1):
            entry = log[v % DELTA_LOG]
            if entry[0] != v:
                return None  # overwritten by a newer mutation meanwhile
            out.append(entry[1])
        return out

    def revalidate(self, query, items, since: int) -> int | None:
        """The version ``items`` is now proven the answer to ``query`` at,
        given it was at version ``since``; None when a delta since may
        have changed it or is no longer in the log.

        Replays :meth:`deltas` through
        :func:`repro.core.coherence.answer_survives` (rules R1-R5) with
        this dataset's :meth:`reaches` as the one scorer: R3 and R5 ask
        it a floor question — does a score (R3: over the sets an arrival
        did not touch) reach the floor? — never for a score.  Reading the
        log takes no lock, so only a rule that asks the trees (R3 past
        its ceiling, R5) can make a replay wait behind a tree write; one
        that finds a write landed since the log was read is doubt, for
        the trees are no longer those of the version proven.
        """
        deltas = self.deltas(since)
        if deltas is None:
            return None
        version = since + len(deltas)
        reaches = self.reaches

        def at_version(*args):
            with self._lock:
                return reaches(*args) if self.version == version else None

        if not answer_survives(query, items, deltas, at_version):
            return None
        return version

    def reaches(
        self, query, point: tuple[float, float], floor: float,
        skip: int | None,
    ) -> bool:
        """Does the location ``point`` score at least ``floor`` over the
        current feature sets (``skip`` None) — or does some data object
        within ``r`` of it, summed over every set but ``skip``?
        Algorithm 1's fold with ``floor`` as its threshold
        (:func:`repro.core.stds.reaches`), under the mutation lock so it
        never reads a half-written tree."""
        with self._lock:
            if skip is not None:
                objects = [
                    (e.oid, e.x, e.y)
                    for e in self.processor.object_tree.range_search(
                        point, query.radius * _RANGE_SLACK
                    )
                ]
            else:
                objects = [(-1, *point)]  # the location, under no real id
            return stds_reaches(
                self.processor.feature_trees, query, objects, floor, skip
            )

    # ------------------------------------------------------------------
    # snapshots (rebuild / brute-force oracle input)
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return len(self._objects)

    def n_features(self, set_id: int) -> int:
        self._check_set(set_id)
        return len(self._features[set_id])

    def object_ids(self) -> list[int]:
        """Current data-object ids, ascending."""
        with self._lock:
            return sorted(self._objects)

    def feature_ids(self, set_id: int) -> list[int]:
        """Current feature ids of one set, ascending."""
        self._check_set(set_id)
        with self._lock:
            return sorted(self._features[set_id])

    def get_object(self, oid: int) -> DataObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise DatasetError(f"unknown data object id {oid}") from None

    def get_feature(self, set_id: int, fid: int) -> FeatureObject:
        self._check_set(set_id)
        return self._existing_feature(set_id, fid)

    def objects_snapshot(self) -> ObjectDataset:
        """Current data objects as an immutable-by-convention dataset."""
        with self._lock:
            members = [self._objects[oid] for oid in sorted(self._objects)]
        return ObjectDataset(members)

    def feature_snapshots(self) -> list[FeatureDataset]:
        """Current feature sets (sorted by id, original vocabularies)."""
        with self._lock:
            return [
                FeatureDataset(
                    [mirror[fid] for fid in sorted(mirror)],
                    self._vocabularies[i],
                    self._labels[i],
                )
                for i, mirror in enumerate(self._features)
            ]

    # ------------------------------------------------------------------
    # query passthrough
    # ------------------------------------------------------------------
    def query(self, query, **kwargs):
        """Execute a query against the live indexes (see QueryProcessor)."""
        return self.processor.query(query, **kwargs)

    def explain(self, query, **kwargs):
        return self.processor.explain(query, **kwargs)

    def clear_buffers(self) -> dict[str, int]:
        return self.processor.clear_buffers()

    # ------------------------------------------------------------------
    # self-checks
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Validate every tree and the index↔mirror counts.

        Raises :class:`~repro.errors.IndexError_` on a structural or
        aggregate violation, :class:`DatasetError` on a count mismatch.
        ``validate()`` recomputes each internal entry from its child, so
        a stale ``max_score``/summary after any mutation fails here.
        """
        tree = self.processor.object_tree
        tree.validate()
        if tree.count != len(self._objects):
            raise DatasetError(
                f"object tree holds {tree.count} entries, mirror has "
                f"{len(self._objects)}"
            )
        for i, ftree in enumerate(self.processor.feature_trees):
            ftree.validate()
            if ftree.count != len(self._features[i]):
                raise DatasetError(
                    f"feature tree {i} holds {ftree.count} entries, "
                    f"mirror has {len(self._features[i])}"
                )
