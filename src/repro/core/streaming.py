"""Incremental (streaming) result delivery for STPS.

Section 6.2: "the remaining data objects p have a score τ(p) = s(C) and
can be returned to the user incrementally."  This module exposes exactly
that: a generator that yields ranked results one by one, reading no more
of the indexes than needed for the results actually consumed — useful
for pagination ("show 10 more") without re-running the query.

Supported for the range and nearest-neighbor variants, whose combination
order delivers exact final scores immediately.  The influence variant is
not streamable this way (an object's score can improve when later
combinations are examined), so it raises :class:`QueryError`.

The second half of the module is the dual problem — a *standing* query
over changing data instead of a changing cursor over standing data:
:class:`TopKMonitor` keeps one query's top-k current while a live
dataset (:mod:`repro.live`) absorbs a mutation stream, reporting entry /
exit / rescore deltas after each refresh (the continuous-monitoring
workload of *Efficient Top-K Temporal Spatial Keyword Search*,
PAPERS.md).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.combinations import PULL_PRIORITIZED, CombinationIterator
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import ResultItem
from repro.core.voronoi import DATA_SPACE, clip_voronoi_cell
from repro.errors import QueryError
from repro.geometry.polygon import ConvexPolygon
from repro.index.feature_tree import FeatureTree
from repro.index.object_rtree import ObjectRTree
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing


def stps_stream(
    object_tree: ObjectRTree,
    feature_trees: Sequence[FeatureTree],
    query: PreferenceQuery,
    pulling: str = PULL_PRIORITIZED,
) -> Iterator[ResultItem]:
    """Yield results in rank order, lazily; ignores ``query.k``.

    Iteration ends when every data object has been emitted.  Ties within
    one combination are emitted in ascending object id.
    """
    if query.variant is Variant.INFLUENCE:
        raise QueryError(
            "the influence variant cannot stream exact ranks incrementally; "
            "use QueryProcessor.query() instead"
        )
    if len(feature_trees) != query.c:
        raise QueryError(
            f"query addresses {query.c} feature sets, processor has "
            f"{len(feature_trees)}"
        )
    if query.variant is Variant.RANGE:
        yield from _stream_range(object_tree, feature_trees, query, pulling)
    else:
        yield from _stream_nearest(object_tree, feature_trees, query, pulling)


def _stream_range(object_tree, feature_trees, query, pulling):
    iterator = CombinationIterator(
        feature_trees, query, enforce_2r=True, pulling=pulling
    )
    seen: set[int] = set()
    while True:
        combo = iterator.next()
        if combo is None:
            return
        if combo.is_all_virtual:
            yield from _zero_tail(object_tree, seen)
            return
        batch = sorted(
            (
                e
                for e in object_tree.within_all(combo.anchors, query.radius)
                if e.oid not in seen
            ),
            key=lambda e: e.oid,
        )
        for e in batch:
            seen.add(e.oid)
            yield ResultItem(e.oid, combo.score, e.x, e.y)


def _stream_nearest(object_tree, feature_trees, query, pulling):
    iterator = CombinationIterator(
        feature_trees, query, enforce_2r=False, pulling=pulling
    )
    scorers = [
        tree.make_scorer(mask, query.lam)
        for tree, mask in zip(feature_trees, query.keyword_masks)
    ]
    unit_region = ConvexPolygon.from_rect(DATA_SPACE)
    cell_caches: list[dict[int, ConvexPolygon]] = [{} for _ in feature_trees]
    seen: set[int] = set()
    while True:
        combo = iterator.next()
        if combo is None:
            return
        if combo.is_all_virtual:
            yield from _zero_tail(object_tree, seen)
            return
        region = unit_region
        for i, feature in enumerate(combo.features):
            if feature.is_virtual:
                continue
            cell = cell_caches[i].get(feature.fid)
            if cell is None:
                cell = clip_voronoi_cell(
                    feature_trees[i],
                    scorers[i],
                    (feature.x, feature.y),
                    feature.fid,
                    unit_region,
                )
                cell_caches[i][feature.fid] = cell
            region = region.intersection(cell)
            if region.is_empty:
                break
        if region.is_empty:
            continue
        batch = sorted(
            (e for e in object_tree.in_polygon(region) if e.oid not in seen),
            key=lambda e: e.oid,
        )
        for e in batch:
            seen.add(e.oid)
            yield ResultItem(e.oid, combo.score, e.x, e.y)


def _zero_tail(object_tree, seen):
    remaining = sorted(
        (e.oid, e.x, e.y)
        for e in object_tree.all_entries()
        if e.oid not in seen
    )
    for oid, x, y in remaining:
        seen.add(oid)
        yield ResultItem(oid, 0.0, x, y)


# ----------------------------------------------------------------------
# continuous monitoring over a live dataset
# ----------------------------------------------------------------------
def monitor_refreshes_metric() -> "_metrics.MetricFamily":
    """Monitor refreshes that actually re-ran the standing query."""
    return _metrics.registry().counter(
        "repro_live_monitor_refreshes_total",
        "Standing-query re-executions by a TopKMonitor.",
        (),
    )


def monitor_changes_metric() -> "_metrics.MetricFamily":
    """Top-k membership changes observed, by kind."""
    return _metrics.registry().counter(
        "repro_live_monitor_changes_total",
        "Top-k deltas reported by TopKMonitor refreshes.",
        ("kind",),
    )


@dataclass(frozen=True, slots=True)
class TopKDelta:
    """What one :meth:`TopKMonitor.refresh` changed in the top-k.

    ``entered``/``exited`` are items that joined/left the top-k;
    ``rescored`` pairs ``(before, after)`` for objects that stayed but
    whose item changed (score or reported position).  ``version`` is the
    live dataset's mutation counter at refresh time.
    """

    version: int
    entered: tuple[ResultItem, ...] = ()
    exited: tuple[ResultItem, ...] = ()
    rescored: tuple[tuple[ResultItem, ResultItem], ...] = field(default=())

    @property
    def changed(self) -> bool:
        return bool(self.entered or self.exited or self.rescored)


class TopKMonitor:
    """A standing top-k query kept current over a mutating live dataset.

    ``live`` is any object with the live-dataset surface —
    ``query(query, **kwargs)``, ``apply(mutation)``, and a monotone
    ``version`` counter (:class:`~repro.live.LiveDataset` /
    :class:`~repro.live.LiveShardedDataset`)::

        monitor = TopKMonitor(live, query)          # runs the baseline
        live.move_feature(0, fid, x, y)
        delta = monitor.refresh()                    # entered/exited/rescored
        monitor.results                              # current top-k items

    Construction runs the baseline query (its items are *not* reported
    as entries — deltas describe changes after the monitor started).
    :meth:`refresh` skips the query entirely when ``version`` has not
    moved, so polling an idle dataset is free; :meth:`drain` folds a
    batch of :class:`~repro.live.Mutation` events and refreshes once —
    the continuous-query loop over a feature stream.
    """

    def __init__(self, live, query: PreferenceQuery, **query_kwargs) -> None:
        self.live = live
        self.query = query
        self.query_kwargs = query_kwargs
        self._version: int = -1
        self._current: tuple[ResultItem, ...] = ()
        self._baseline()

    @property
    def results(self) -> tuple[ResultItem, ...]:
        """The top-k as of the last refresh (rank order)."""
        return self._current

    @property
    def version(self) -> int:
        """Dataset mutation version the current results reflect."""
        return self._version

    def _baseline(self) -> None:
        self._version = self.live.version
        self._current = tuple(
            self.live.query(self.query, **self.query_kwargs).items
        )
        monitor_refreshes_metric().inc()

    def refresh(self, force: bool = False) -> TopKDelta:
        """Re-run the standing query if the dataset moved; report deltas."""
        version = self.live.version
        if version == self._version and not force:
            return TopKDelta(version)
        with _tracing.span(
            "live.monitor.refresh", cat="live", version=version
        ):
            items = tuple(
                self.live.query(self.query, **self.query_kwargs).items
            )
        monitor_refreshes_metric().inc()
        before = {item.oid: item for item in self._current}
        after = {item.oid: item for item in items}
        entered = tuple(i for i in items if i.oid not in before)
        exited = tuple(i for i in self._current if i.oid not in after)
        rescored = tuple(
            (before[oid], after[oid])
            for oid in sorted(before.keys() & after.keys())
            if before[oid] != after[oid]
        )
        self._version = version
        self._current = items
        changes = monitor_changes_metric()
        if entered:
            changes.labels(kind="entered").inc(len(entered))
        if exited:
            changes.labels(kind="exited").inc(len(exited))
        if rescored:
            changes.labels(kind="rescored").inc(len(rescored))
        return TopKDelta(version, entered, exited, rescored)

    def drain(self, mutations: Iterable) -> TopKDelta:
        """Apply a stream of mutation events, then refresh once."""
        for mutation in mutations:
            self.live.apply(mutation)
        return self.refresh()
