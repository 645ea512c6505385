"""Standing top-k queries over a live dataset.

:class:`TopKMonitor` keeps one query's top-k current while a live
dataset absorbs a mutation stream, reporting entry / exit / rescore
deltas after each refresh (the continuous-monitoring workload of
*Efficient Top-K Temporal Spatial Keyword Search*, PAPERS.md).  It is
the dual of :func:`repro.core.stps.stps_stream`: a standing query over
changing data instead of a changing cursor over standing data.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.query import PreferenceQuery
from repro.core.results import ResultItem
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing


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
    live dataset's mutation counter the results now reflect.
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

    ``live`` is a :class:`~repro.live.LiveDataset`::

        monitor = TopKMonitor(live, query)          # runs the baseline
        live.move_feature(0, fid, x, y)
        delta = monitor.refresh()                    # entered/exited/rescored
        monitor.results                              # current top-k items

    Construction runs the baseline query (its items are *not* reported
    as entries — deltas describe changes after the monitor started).
    :meth:`refresh` first replays the mutations since the last one
    (:meth:`~repro.live.LiveDataset.revalidate`); when none of them can
    change the answer it only advances :attr:`version`, so polling an
    idle dataset — or one whose writes miss the query — runs nothing.
    :meth:`drain` folds a batch of :class:`~repro.live.Mutation` events
    and refreshes once — the continuous-query loop over a feature stream.
    """

    def __init__(self, live, query: PreferenceQuery, **query_kwargs) -> None:
        self.live = live
        self.query = query
        self.query_kwargs = query_kwargs
        self._version = live.version
        self._current = self._execute()

    @property
    def results(self) -> tuple[ResultItem, ...]:
        """The top-k as of the last refresh (rank order)."""
        return self._current

    @property
    def version(self) -> int:
        """Dataset mutation version the current results reflect."""
        return self._version

    def _execute(self) -> tuple[ResultItem, ...]:
        monitor_refreshes_metric().inc()
        return tuple(self.live.query(self.query, **self.query_kwargs).items)

    def refresh(self, force: bool = False) -> TopKDelta:
        """Bring the top-k up to the dataset's version; report deltas.

        Re-runs the query only when a mutation since the last refresh
        may have changed the answer, or when ``force`` asks for it.
        """
        if not force:
            proven = self.live.revalidate(
                self.query, self._current, self._version
            )
            if proven is not None:
                self._version = proven
                return TopKDelta(proven)
        version = self.live.version
        with _tracing.span(
            "live.monitor.refresh", cat="live", version=version
        ):
            items = self._execute()
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
