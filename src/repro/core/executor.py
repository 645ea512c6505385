"""Concurrent batch-query execution over shared read-only indexes.

A :class:`QueryExecutor` couples a :class:`~repro.core.processor.QueryProcessor`
with a thread pool and runs many :class:`~repro.core.query.PreferenceQuery`s
against the *same* index objects.  The indexes are treated as read-only:
the node cache takes an internal lock around its LRU bookkeeping (see
:mod:`repro.storage.node_cache`), so concurrent traversals are safe and
every thread benefits from nodes read by the others — a repeated-query
workload runs almost entirely out of the node cache.

Each query is executed by exactly the same code path the serial
:meth:`QueryProcessor.query` uses, so per-query *results* are identical
to a serial run.  Per-query *I/O counters* are attributed from shared
page-file statistics and therefore include activity of concurrently
running queries; use :meth:`BatchReport.aggregate` (or the per-tree
``IOStats``) for workload-level accounting instead.

Batches are deduplicated by default: identical queries (``PreferenceQuery``
is hashable by value) execute once and share their immutable result, so
repeated-query workloads pay for each distinct query only.  Disable with
``dedup=False`` when per-entry execution matters.

Typical use::

    with QueryExecutor(processor, max_workers=4) as executor:
        results = executor.query_many(queries)          # STPS, in order
        report = executor.run(queries, algorithm="stds")
        print(report.throughput_qps, report.node_cache_hit_rate)
"""

from __future__ import annotations

import logging
import math
import threading
import time
import weakref
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.combinations import PULL_PRIORITIZED
from repro.core.query import PreferenceQuery
from repro.core.results import QueryResult
from repro.errors import QueryError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

logger = logging.getLogger(__name__)

DEFAULT_MAX_WORKERS = 4

#: Time a query spends in the executor queue before a worker picks it up.
QUEUE_WAIT_SECONDS = _metrics.registry().histogram(
    "repro_executor_queue_wait_seconds",
    "Time between submission and execution start.",
    ("algorithm",),
)
#: Whole-batch wall time per ``QueryExecutor.run`` call.
BATCH_SECONDS = _metrics.registry().histogram(
    "repro_executor_batch_seconds",
    "Wall time of one batch run.",
    ("algorithm",),
)
#: Worker exceptions, labeled by algorithm and exception class name.
EXECUTOR_FAILURES = _metrics.registry().counter(
    "repro_executor_failures_total",
    "Queries that raised inside an executor worker.",
    ("algorithm", "error"),
)

ON_ERROR_MODES = ("raise", "return")

#: All live executors (weak refs); the resource sampler
#: (:mod:`repro.obs.resources`) sums their queue depth and in-flight
#: counts into backpressure gauges.
_live_executors: "weakref.WeakSet[QueryExecutor]" = weakref.WeakSet()


def live_executors() -> list["QueryExecutor"]:
    """Live QueryExecutor instances (weakly tracked)."""
    return [e for e in _live_executors if not e._closed]


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
    """One query that raised inside an executor worker.

    ``index`` is the position of the query's *first occurrence* in the
    input batch (deduplicated batches execute each distinct query once;
    every duplicate position shares this failure).  ``error`` is the
    original exception object, ``message`` its rendered text.
    ``trace_id`` is the id the failed execution ran under — grep it in
    the Chrome trace, the flight-recorder dump, and the structured logs
    to see everything the query did before dying.  ``shard_id`` is
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

    def describe(self) -> dict:
        """JSON-friendly summary for logs and batch reports."""
        out = {
            "index": self.index,
            "error": type(self.error).__name__,
            "message": self.message,
            "trace_id": self.trace_id,
        }
        if self.shard_id is not None:
            out["shard_id"] = self.shard_id
        return out


@dataclass(slots=True)
class BatchReport:
    """Results of a batch run plus workload-level cost accounting.

    ``latencies_s`` / ``queue_waits_s`` hold one sample per *executed*
    query (deduplicated batches execute each distinct query once):
    execution wall time and time spent waiting in the pool queue before
    a worker picked the query up.  The ``latency_p*`` / ``queue_wait_p*``
    properties are nearest-rank percentiles over those samples.
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

    def latency_percentiles(self) -> dict[str, float]:
        """{"p50": ..., "p95": ..., "p99": ...} of per-query latency.

        All values are NaN when no query executed successfully (e.g. an
        all-failures batch under ``on_error="return"``).
        """
        ordered = sorted(self.latencies_s)
        return {
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "p99": _percentile(ordered, 0.99),
        }

    def queue_wait_percentiles(self) -> dict[str, float]:
        """{"p50": ..., "p95": ..., "p99": ...} of queue wait."""
        ordered = sorted(self.queue_waits_s)
        return {
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "p99": _percentile(ordered, 0.99),
        }

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
    def queue_wait_p50_s(self) -> float:
        return _percentile(sorted(self.queue_waits_s), 0.50)

    @property
    def queue_wait_p95_s(self) -> float:
        return _percentile(sorted(self.queue_waits_s), 0.95)

    @property
    def queue_wait_p99_s(self) -> float:
        return _percentile(sorted(self.queue_waits_s), 0.99)

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
    """Runs batches of preference queries on a shared thread pool."""

    def __init__(
        self,
        processor,
        max_workers: int = DEFAULT_MAX_WORKERS,
    ) -> None:
        if max_workers < 1:
            raise QueryError(f"max_workers must be >= 1, got {max_workers}")
        self.processor = processor
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-query"
        )
        self._closed = False
        # Backpressure accounting: queries submitted to the pool but not
        # yet picked up, and queries currently executing.  Sampled by the
        # resource sampler; a growing queue depth is the serving layer's
        # admission-control signal.
        self._depth_lock = threading.Lock()
        self._queued = 0
        self._running = 0
        _live_executors.add(self)

    @property
    def queue_depth(self) -> int:
        """Queries submitted to the pool but not yet picked up."""
        return self._queued

    @property
    def running_count(self) -> int:
        """Queries currently executing on pool threads."""
        return self._running

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down; subsequent submissions raise."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        # Safety net for executors abandoned without close(): without
        # it the pool threads (non-daemon) outlive the object and keep
        # the interpreter alive.  close() remains the real API.
        try:
            if not self._closed:
                self._closed = True
                self._pool.shutdown(wait=False)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _trees(self):
        """Every index the processor reads (duck-typed).

        Prefers the processor's ``trees()`` accessor (both
        :class:`~repro.core.processor.QueryProcessor` and
        :class:`~repro.shard.ShardedQueryProcessor` provide it) and falls
        back to the classic ``object_tree``/``feature_trees`` attributes
        for processor-shaped test doubles.
        """
        trees = getattr(self.processor, "trees", None)
        if callable(trees):
            return list(trees())
        return [self.processor.object_tree, *self.processor.feature_trees]

    def query_many(
        self,
        queries: Sequence[PreferenceQuery],
        algorithm: str = "stps",
        pulling: str = PULL_PRIORITIZED,
        dedup: bool = True,
        on_error: str = "raise",
        _timings: list[tuple[float, float]] | None = None,
        _failures: list[QueryFailure] | None = None,
    ) -> list[QueryResult | None]:
        """Execute many queries concurrently; results in input order.

        Every query runs the exact serial code path, so each
        :class:`QueryResult`'s items match a serial
        :meth:`QueryProcessor.query` call for the same query.

        ``dedup`` (default on) executes each *distinct* query in the
        batch exactly once and shares the :class:`QueryResult` across its
        duplicates — the batch-level analogue of common-subexpression
        elimination.  Query evaluation is deterministic and results are
        immutable, so the answer at every position is identical to a
        serial run; only the attributed per-query stats collapse onto the
        shared object.  Pass ``dedup=False`` to force one execution per
        entry (e.g. when measuring per-query costs).

        ``on_error`` decides what a worker exception does to the batch.
        Either way every submitted future is awaited first, so one bad
        query can never wedge or abandon the rest of the batch:

        * ``"raise"`` (default) — re-raise the first failure (by input
          order) after the whole batch has settled;
        * ``"return"`` — succeed with ``None`` at each failed position
          and record one :class:`QueryFailure` per failed execution
          (surfaced as :attr:`BatchReport.failures` via :meth:`run`).

        Failures also increment
        ``repro_executor_failures_total{algorithm,error}``.

        ``_timings`` / ``_failures`` (internal, used by :meth:`run`)
        collect per-executed-query ``(queue_wait_s, latency_s)`` samples
        and structured failures; ``list.append`` is atomic, so workers
        share the lists freely.
        """
        if self._closed:
            raise QueryError("executor is closed")
        if on_error not in ON_ERROR_MODES:
            raise QueryError(
                f"unknown on_error {on_error!r}; choose from {ON_ERROR_MODES}"
            )
        if dedup:
            # PreferenceQuery is a frozen dataclass — hashable by value.
            distinct: dict[PreferenceQuery, int] = {}
            first_pos: dict[PreferenceQuery, int] = {}
            for pos, query in enumerate(queries):
                distinct.setdefault(query, len(distinct))
                first_pos.setdefault(query, pos)
            to_run: Sequence[PreferenceQuery] = list(distinct)
            positions = [first_pos[query] for query in to_run]
        else:
            to_run = queries
            positions = list(range(len(queries)))

        queue_wait_metric = QUEUE_WAIT_SECONDS.labels(algorithm=algorithm)
        # Trace contexts are minted *here*, before submission, so a
        # failed execution's id is known even though the processor never
        # got to return.  An ambient context (a served request entering
        # through execute_one under trace_scope) is inherited instead of
        # minted, so the HTTP-level trace and the engine-level spans
        # join on one id and one collector.  The worker closure resumes
        # it explicitly: ThreadPoolExecutor does not propagate
        # contextvars to workers.
        ambient = _tracing.capture()
        contexts = [
            ambient or _tracing.TraceContext(_tracing.new_trace_id())
            for _ in to_run
        ]

        def run_one(
            query: PreferenceQuery, submitted: float, ctx
        ) -> QueryResult:
            started = time.perf_counter()
            with self._depth_lock:
                self._queued -= 1
                self._running += 1
            try:
                with _tracing.resume(ctx), _tracing.span(
                    "executor.query", cat="executor", algorithm=algorithm
                ):
                    result = self.processor.query(
                        query,
                        algorithm=algorithm,
                        pulling=pulling,
                    )
            finally:
                with self._depth_lock:
                    self._running -= 1
            finished = time.perf_counter()
            queue_wait_metric.observe(started - submitted)
            if _timings is not None:
                _timings.append((started - submitted, finished - started))
            return result

        with self._depth_lock:
            self._queued += len(to_run)
        futures = [
            self._pool.submit(run_one, query, time.perf_counter(), ctx)
            for query, ctx in zip(to_run, contexts)
        ]
        # Settle *every* future before deciding how to react: a failure
        # must not abandon (or cancel) the rest of the batch.
        results: list[QueryResult | None] = []
        failures: list[QueryFailure] = []
        for pos, query, ctx, future in zip(
            positions, to_run, contexts, futures
        ):
            exc = future.exception()
            if exc is None:
                results.append(future.result())
                continue
            results.append(None)
            EXECUTOR_FAILURES.labels(
                algorithm=algorithm, error=type(exc).__name__
            ).inc()
            failures.append(
                QueryFailure(
                    index=pos, query=query, error=exc, message=str(exc),
                    trace_id=ctx.trace_id,
                )
            )
        if failures:
            failures.sort(key=lambda f: f.index)
            logger.warning(
                "batch: %d of %d queries failed (first: %s)",
                len(failures), len(to_run), failures[0].message,
            )
            if on_error == "raise":
                raise failures[0].error
            if _failures is not None:
                _failures.extend(failures)
        if not dedup:
            return results
        return [results[distinct[query]] for query in queries]

    def execute_one(
        self,
        query: PreferenceQuery,
        algorithm: str = "stps",
        pulling: str = PULL_PRIORITIZED,
    ) -> tuple[QueryResult, float, float]:
        """Run one query through the pool; ``(result, queue_wait_s, latency_s)``.

        The serving layer's entry point: a request-at-a-time analogue of
        :meth:`query_many` that surfaces the two numbers admission
        control needs — how long the query waited for a worker and how
        long it executed.  Failures raise (the caller owns per-request
        error mapping; there is no batch to isolate them from).
        """
        timings: list[tuple[float, float]] = []
        result = self.query_many(
            [query],
            algorithm=algorithm,
            pulling=pulling,
            dedup=False,
            on_error="raise",
            _timings=timings,
        )[0]
        queue_wait_s, latency_s = timings[0] if timings else (0.0, 0.0)
        return result, queue_wait_s, latency_s

    def run(
        self,
        queries: Sequence[PreferenceQuery],
        algorithm: str = "stps",
        pulling: str = PULL_PRIORITIZED,
        dedup: bool = True,
        on_error: str = "raise",
    ) -> BatchReport:
        """Like :meth:`query_many` but with workload-level accounting.

        The I/O and cache counters reflect the work actually performed —
        with ``dedup`` on, duplicated queries execute once, so counters
        cover the distinct executions while ``queries``/``throughput_qps``
        count every answered position.

        With ``on_error="return"``, failed positions hold ``None`` in
        :attr:`BatchReport.results` and each failed execution is recorded
        as a :class:`QueryFailure` in :attr:`BatchReport.failures`.
        """
        trees = self._trees()
        before = [t.pagefile.stats.snapshot() for t in trees]
        timings: list[tuple[float, float]] = []
        failures: list[QueryFailure] = []
        t0 = time.perf_counter()
        results = self.query_many(
            queries,
            algorithm=algorithm,
            pulling=pulling,
            dedup=dedup,
            on_error=on_error,
            _timings=timings,
            _failures=failures,
        )
        wall_s = time.perf_counter() - t0
        BATCH_SECONDS.labels(algorithm=algorithm).observe(wall_s)
        report = BatchReport(
            results=results,
            wall_s=wall_s,
            queries=len(results),
            failures=failures,
            queue_waits_s=[w for w, _ in timings],
            latencies_s=[lat for _, lat in timings],
        )
        for tree, snap in zip(trees, before):
            delta = tree.pagefile.stats.delta_since(snap)
            report.node_cache_hits += delta.node_cache_hits
            report.node_cache_misses += delta.node_cache_misses
            report.io_reads += delta.reads
            report.buffer_hits += delta.buffer_hits
        return report
