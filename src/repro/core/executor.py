"""Batch and request-at-a-time query execution on the caller's thread.

A :class:`QueryExecutor` wraps a processor
(:class:`~repro.core.processor.QueryProcessor` or the sharded one) and
owns no threads: every query runs the exact
:meth:`QueryProcessor.query` code path on the thread that asked, behind
a slot gate admitting ``max_workers`` executions at once.  Threads that
call in concurrently (the HTTP server's handlers) share the read-only
indexes — the node cache locks its own LRU bookkeeping
(:mod:`repro.storage.node_cache`) — and wait at the gate when it is
full; ``queue_depth`` counts them and ``queue_wait_s`` is the time one
spent there, which is what the serving layer's admission control reads.

What a batch adds over a ``for`` loop: identical queries
(``PreferenceQuery`` is hashable by value) execute once and share their
immutable result unless ``dedup=False``; a failing query is isolated
(``on_error``) instead of ending the batch; and :meth:`QueryExecutor.run`
returns workload-level accounting.  Per-query I/O counters are read off
shared page-file statistics, so under concurrent callers use
:class:`BatchReport` (or the per-tree ``IOStats``) for totals.

Typical use::

    with QueryExecutor(processor) as executor:
        results = executor.query_many(queries)          # STPS, in order
        report = executor.run(queries, algorithm="stds")
        print(report.throughput_qps, report.node_cache_hit_rate)
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.query import PreferenceQuery
from repro.core.results import QueryResult
from repro.errors import QueryError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

logger = logging.getLogger(__name__)

DEFAULT_MAX_WORKERS = 4

ON_ERROR_MODES = ("raise", "return")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence.

    An empty sample has no percentiles: returns NaN rather than a
    made-up 0.0 (an all-failures batch with ``on_error="return"``
    produces exactly this case — 0.0 would read as "instant queries").
    """
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(slots=True)
class QueryFailure:
    """One query that raised inside the executor.

    ``index`` is the position of the query's *first occurrence* in the
    input batch (deduplicated batches execute each distinct query once;
    every duplicate position shares this failure).  ``error`` is the
    original exception object, ``message`` its rendered text.
    ``trace_id`` is the id the failed execution ran under — grep it in
    the Chrome trace and the ``/flight.json`` records to see everything the
    query did before dying.  ``shard_id`` is
    filled from :class:`~repro.errors.ShardError` when the failure came
    out of the sharded fan-out.
    """

    index: int
    query: PreferenceQuery
    error: BaseException
    message: str
    trace_id: str = ""

    @property
    def shard_id(self) -> int | None:
        """Failing shard for sharded-engine errors, else None."""
        return getattr(self.error, "shard_id", None)


@dataclass(slots=True)
class BatchReport:
    """Results of a batch run plus workload-level cost accounting.

    ``latencies_s`` / ``queue_waits_s`` hold one sample per *executed*
    query (deduplicated batches execute each distinct query once):
    execution wall time and time spent waiting for a slot.  The
    ``latency_p*_s`` / ``queue_wait_p95_s`` properties are nearest-rank
    percentiles over those samples, NaN when there are none.
    """

    results: list[QueryResult | None] = field(default_factory=list)
    wall_s: float = 0.0
    queries: int = 0
    failures: list[QueryFailure] = field(default_factory=list)
    node_cache_hits: int = 0
    node_cache_misses: int = 0
    io_reads: int = 0
    buffer_hits: int = 0
    latencies_s: list[float] = field(default_factory=list)
    queue_waits_s: list[float] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second of wall time."""
        return self.queries / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def node_cache_hit_rate(self) -> float:
        """Decoded-node cache hits / lookups across the whole batch."""
        total = self.node_cache_hits + self.node_cache_misses
        return self.node_cache_hits / total if total else 0.0

    @property
    def latency_p50_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.50)

    @property
    def latency_p95_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.95)

    @property
    def latency_p99_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.99)

    @property
    def queue_wait_p95_s(self) -> float:
        return _percentile(sorted(self.queue_waits_s), 0.95)

    def aggregate_phase_times(self) -> dict[str, float]:
        """Per-phase wall seconds summed over the batch's distinct results.

        Empty unless tracing was enabled during the run (see
        :mod:`repro.obs.tracing`).
        """
        totals: dict[str, float] = {}
        seen: set[int] = set()
        for result in self.results:
            if result is None:  # failed position (on_error="return")
                continue
            if id(result) in seen:  # dedup'd batches share result objects
                continue
            seen.add(id(result))
            for phase, seconds in result.stats.phase_times.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals


class QueryExecutor:
    """Runs queries on the calling thread, ``max_workers`` at a time."""

    def __init__(
        self,
        processor,
        max_workers: int = DEFAULT_MAX_WORKERS,
    ) -> None:
        if max_workers < 1:
            raise QueryError(f"max_workers must be >= 1, got {max_workers}")
        self.processor = processor
        self.max_workers = max_workers
        self._closed = False
        # The slot gate, a counted semaphore whose two counts can be
        # read: callers waiting for a slot and queries executing.  The
        # waiting count is the serving layer's admission-control signal.
        self._gate = threading.Condition()
        self._queued = 0
        self._running = 0

    @property
    def queue_depth(self) -> int:
        """Callers waiting for an execution slot."""
        return self._queued

    @property
    def running_count(self) -> int:
        """Queries currently executing (at most ``max_workers``)."""
        return self._running

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new calls; queries already admitted finish."""
        self._closed = True

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(
        self, query: PreferenceQuery, algorithm: str
    ) -> tuple[QueryResult, float, float]:
        """One query, here, once a slot is free.

        Returns ``(result, queue_wait_s, latency_s)``.  The query runs
        in the caller's context, so an ambient trace (a served request
        under ``trace_scope``) is simply still active.  A failure is
        counted in ``repro_executor_failures_total`` and re-raised.
        """
        asked = time.perf_counter()
        with self._gate:
            self._queued += 1
            try:
                while self._running >= self.max_workers:
                    self._gate.wait()
                self._running += 1
            finally:
                self._queued -= 1
        started = time.perf_counter()
        _metrics.registry().histogram(
            "repro_executor_queue_wait_seconds",
            "Time between asking and execution start.",
            ("algorithm",),
        ).labels(algorithm=algorithm).observe(started - asked)
        try:
            with _tracing.span(
                "executor.query", cat="executor", algorithm=algorithm
            ):
                result = self.processor.query(query, algorithm=algorithm)
        except Exception as exc:
            _metrics.registry().counter(
                "repro_executor_failures_total",
                "Queries that raised inside the executor.",
                ("algorithm", "error"),
            ).labels(algorithm=algorithm, error=type(exc).__name__).inc()
            raise
        finally:
            with self._gate:
                self._running -= 1
                self._gate.notify()
        return result, started - asked, time.perf_counter() - started

    def _batch(
        self,
        queries: Sequence[PreferenceQuery],
        algorithm: str,
        dedup: bool,
        on_error: str,
    ) -> BatchReport:
        """The batch loop; fills everything of the report but wall and I/O."""
        if self._closed:
            raise QueryError("executor is closed")
        if on_error not in ON_ERROR_MODES:
            raise QueryError(
                f"unknown on_error {on_error!r}; choose from {ON_ERROR_MODES}"
            )
        ambient = _tracing.capture()
        report = BatchReport(queries=len(queries))
        executed: dict[PreferenceQuery, QueryResult | None] = {}
        for pos, query in enumerate(queries):
            if dedup and query in executed:
                report.results.append(executed[query])
                continue
            # Minted here rather than by the processor so a failed
            # execution's id is known; an ambient trace is kept.
            ctx = ambient or _tracing.TraceContext(_tracing.new_trace_id())
            result = None
            try:
                with _tracing.resume(ctx):
                    result, wait_s, latency_s = self._execute(
                        query, algorithm
                    )
                report.queue_waits_s.append(wait_s)
                report.latencies_s.append(latency_s)
            except Exception as exc:  # noqa: BLE001 — isolated per query
                report.failures.append(
                    QueryFailure(
                        index=pos, query=query, error=exc, message=str(exc),
                        trace_id=ctx.trace_id,
                    )
                )
            if dedup:
                executed[query] = result
            report.results.append(result)
        if report.failures:
            logger.warning(
                "batch: %d of %d queries failed (first: %s)",
                len(report.failures),
                len(report.latencies_s) + len(report.failures),
                report.failures[0].message,
            )
            if on_error == "raise":
                raise report.failures[0].error
        return report

    def query_many(
        self,
        queries: Sequence[PreferenceQuery],
        algorithm: str = "stps",
        dedup: bool = True,
        on_error: str = "raise",
    ) -> list[QueryResult | None]:
        """Execute many queries; results in input order.

        Every query runs the exact serial code path, so each
        :class:`QueryResult`'s items match a
        :meth:`QueryProcessor.query` call for the same query.

        ``dedup`` (default on) executes each *distinct* query in the
        batch exactly once and shares the :class:`QueryResult` across its
        duplicates — the batch-level analogue of common-subexpression
        elimination.  Query evaluation is deterministic and results are
        immutable, so the answer at every position is unchanged; only
        the attributed per-query stats collapse onto the shared object.
        Pass ``dedup=False`` to force one execution per entry (e.g. when
        measuring per-query costs).

        ``on_error`` decides what a failing query does to the batch.
        Either way every query runs first, so one bad query never costs
        the rest of the batch their answers:

        * ``"raise"`` (default) — re-raise the first failure (by input
          order) after the whole batch has run;
        * ``"return"`` — succeed with ``None`` at each failed position
          and record one :class:`QueryFailure` per failed execution
          (surfaced as :attr:`BatchReport.failures` via :meth:`run`).

        Failures also increment
        ``repro_executor_failures_total{algorithm,error}``.
        """
        return self._batch(queries, algorithm, dedup, on_error).results

    def execute_one(
        self,
        query: PreferenceQuery,
        algorithm: str = "stps",
    ) -> tuple[QueryResult, float, float]:
        """Run one query; ``(result, queue_wait_s, latency_s)``.

        The serving layer's entry point: it surfaces the two numbers
        admission control needs — how long the caller waited for a slot
        and how long the query executed.  Failures raise (the caller
        owns per-request error mapping; there is no batch to isolate
        them from).
        """
        if self._closed:
            raise QueryError("executor is closed")
        return self._execute(query, algorithm)

    def run(
        self,
        queries: Sequence[PreferenceQuery],
        algorithm: str = "stps",
        dedup: bool = True,
        on_error: str = "raise",
    ) -> BatchReport:
        """Like :meth:`query_many` but with workload-level accounting.

        The I/O and cache counters reflect the work actually performed —
        with ``dedup`` on, duplicated queries execute once, so counters
        cover the distinct executions while ``queries``/``throughput_qps``
        count every answered position.
        """
        trees = list(self.processor.trees())
        before = [t.pagefile.stats.snapshot() for t in trees]
        t0 = time.perf_counter()
        report = self._batch(queries, algorithm, dedup, on_error)
        report.wall_s = time.perf_counter() - t0
        _metrics.registry().histogram(
            "repro_executor_batch_seconds",
            "Wall time of one batch run.",
            ("algorithm",),
        ).labels(algorithm=algorithm).observe(report.wall_s)
        for tree, snap in zip(trees, before):
            delta = tree.pagefile.stats.delta_since(snap)
            report.node_cache_hits += delta.node_cache_hits
            report.node_cache_misses += delta.node_cache_misses
            report.io_reads += delta.reads
            report.buffer_hits += delta.buffer_hits
        return report
