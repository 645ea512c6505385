"""Thread-safe metrics registry: counters, gauges, latency histograms.

The paper evaluates every algorithm through cost anatomy — I/O vs. CPU
time, combinations examined, feature objects pulled (Section 8.1).  This
module provides the runtime counterpart: a process-wide
:class:`MetricsRegistry` of *labeled* metric families that the query
stack updates as it runs and the exporters in :mod:`repro.obs.export`
render (Prometheus text exposition, JSON snapshots).

Three metric types, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (queries served,
  features pulled per feature set, combinations examined);
* :class:`Gauge` — point-in-time values (cache sizes, hit rates);
* :class:`Histogram` — log-bucketed distributions with cumulative bucket
  counts, used for query/batch latencies.  Buckets form a geometric
  series (default 10 µs … ~84 s, factor 2) so one histogram spans the
  microsecond-to-minute range the workloads produce; ``quantile`` gives
  interpolated p50/p95/p99 summaries from the bucket counts.

Label handling follows the Prometheus convention: a *family* is declared
once with its label names and ``labels(**values)`` returns (creating on
first use) the child series for one label combination.  Families with no
labels proxy operations straight to their single child, so
``registry.counter("x").inc()`` works.

All mutation goes through per-family locks, so concurrent callers may
update shared series; registration is idempotent (re-declaring a family
with the same type and labels returns the existing one, mismatches raise
:class:`~repro.errors.ReproError`).

A process-wide default registry is available via :func:`registry`; a
finished query's families are derived from its ``QueryStats`` there by
:func:`repro.obs.explain.record_query`.  ``registry().reset()``
zeroes every series while keeping the registrations (used by
``QueryProcessor.reset_stats`` and the tests).
"""

from __future__ import annotations

import logging
import math
import threading
import time
from bisect import bisect_left
from collections.abc import Iterable, Sequence

import repro.obs.tracing as _tracing
from repro.errors import ReproError

logger = logging.getLogger(__name__)

#: Module flag, read on the histogram hot path.  When on, each
#: observation made inside an active trace scope stamps its bucket with
#: an *exemplar* — ``(value, trace_id, unix_ts)`` — so a p99 bucket
#: resolves to a concrete query (join the trace id against the trace
#: store and Chrome-trace spans).  Mutate only via
#: :func:`set_exemplars`.
exemplars_enabled = False


def set_exemplars(on: bool) -> bool:
    """Turn exemplar capture on/off; returns the previous flag."""
    global exemplars_enabled
    previous = exemplars_enabled
    exemplars_enabled = bool(on)
    return previous


class enabled_exemplars:
    """Context manager enabling exemplar capture for a block (tests)."""

    def __enter__(self) -> None:
        self._previous = set_exemplars(True)

    def __exit__(self, *exc) -> bool:
        set_exemplars(self._previous)
        return False

#: Default latency buckets: geometric series, 10 µs to ~84 s (factor 2).
#: Log-spaced buckets keep relative quantile error bounded by the factor.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    1e-5 * 2.0**i for i in range(24)
)


def log_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Geometric bucket upper bounds: ``start * factor**i`` for i < count."""
    if start <= 0.0:
        raise ReproError(f"bucket start must be > 0, got {start}")
    if factor <= 1.0:
        raise ReproError(f"bucket factor must be > 1, got {factor}")
    if count < 1:
        raise ReproError(f"bucket count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ReproError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ReproError(f"metric name may not start with a digit: {name!r}")


# ----------------------------------------------------------------------
# series (children)
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing total for one label combination."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge:
    """A point-in-time value for one label combination."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Cumulative-bucket histogram for one label combination.

    ``buckets`` are the finite upper bounds (``le`` semantics, value
    counted in the first bucket with ``value <= bound``); an implicit
    ``+Inf`` bucket catches the rest, exactly as Prometheus does.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count", "_exemplars")

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]) -> None:
        self._lock = lock
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        #: Per-bucket last exemplar, allocated lazily on first capture so
        #: the common exemplars-off histogram costs no extra memory.
        self._exemplars: list[tuple | None] | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
        if exemplars_enabled:
            trace_id = _tracing.current_trace_id()
            if trace_id is not None:
                with self._lock:
                    if self._exemplars is None:
                        self._exemplars = [None] * len(self._counts)
                    self._exemplars[idx] = (value, trace_id, time.time())

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; last entry is +Inf."""
        with self._lock:
            return list(self._counts)

    def cumulative_counts(self) -> list[int]:
        """Cumulative counts aligned with ``buckets`` + the +Inf bucket."""
        counts = self.bucket_counts()
        total = 0
        out = []
        for c in counts:
            total += c
            out.append(total)
        return out

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (0 < q <= 1) from the bucket counts.

        Uses linear interpolation inside the target bucket (Prometheus'
        ``histogram_quantile`` rule).  Edge cases, matching Prometheus:

        * no observations → ``0.0`` (there is no data to interpolate);
        * the quantile falls in the implicit ``+Inf`` bucket → the top
          *finite* bucket bound is returned (``+Inf`` itself would be
          useless for alerting), or ``math.inf`` when the histogram was
          declared with no finite buckets at all.  This means quantiles
          are *clipped* at the largest finite bound: observations beyond
          it are known to exist (``count``/``sum`` still include them)
          but their magnitude is unrepresentable.  Size buckets so the
          expected range is covered (see ``DEFAULT_LATENCY_BUCKETS``).
        """
        if not 0.0 < q <= 1.0:
            raise ReproError(f"quantile must be in (0, 1], got {q}")
        buckets, counts = self.buckets, self.bucket_counts()
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if seen >= rank:
                if i >= len(buckets):  # +Inf bucket
                    return buckets[-1] if buckets else math.inf
                upper = buckets[i]
                lower = buckets[i - 1] if i > 0 else 0.0
                inside = rank - (seen - c)
                return lower + (upper - lower) * (inside / c)
        return buckets[-1] if buckets else math.inf

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def exemplars(self) -> list[tuple[int, float, str, float]]:
        """Captured exemplars: ``(bucket_index, value, trace_id, ts)``.

        One entry per bucket at most (the latest observation wins);
        empty unless :data:`exemplars_enabled` was on during observes.
        """
        with self._lock:
            if self._exemplars is None:
                return []
            return [
                (i, value, trace_id, ts)
                for i, ex in enumerate(self._exemplars)
                if ex is not None
                for value, trace_id, ts in (ex,)
            ]

    def _reset(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._exemplars = None


_TYPE_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------
class MetricFamily:
    """A named metric with fixed label names and one child per label set."""

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        child_type: type,
        **child_kwargs,
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        if len(set(labelnames)) != len(labelnames):
            raise ReproError(f"metric {name!r} repeats a label: {labelnames}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.child_type = child_type
        self._child_kwargs = child_kwargs
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = child_type(self._lock, **child_kwargs)

    @property
    def type_name(self) -> str:
        return _TYPE_NAMES[self.child_type]

    def labels(self, **labelvalues: str):
        """The child series for one label combination (created on demand)."""
        try:
            key = tuple([str(labelvalues[n]) for n in self.labelnames])
        except KeyError:
            key = None
        # Names are distinct (see __init__), so every name present and
        # no extra one means the same label set.
        if key is None or len(labelvalues) != len(key):
            raise ReproError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    key, self.child_type(self._lock, **self._child_kwargs)
                )
        return child

    def series(self) -> Iterable[tuple[tuple[str, ...], object]]:
        """(label values, child) pairs, sorted for stable rendering."""
        with self._lock:
            items = list(self._children.items())
        return sorted(items, key=lambda kv: kv[0])

    def _reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child._reset()

    # Unlabeled families proxy to their single child so e.g.
    # ``registry.counter("x").inc()`` works without a labels() call.
    def _sole_child(self):
        if self.labelnames:
            raise ReproError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole_child().dec(amount)

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def observe(self, value: float) -> None:
        self._sole_child().observe(value)

    @property
    def value(self) -> float:
        return self._sole_child().value

    def quantile(self, q: float) -> float:
        return self._sole_child().quantile(q)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A named collection of metric families (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        child_type: type,
        **child_kwargs,
    ) -> MetricFamily:
        # Callers look families up at record time, so a registered one
        # costs a dict lookup; the lock guards creation only.
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = MetricFamily(
                        name, help_text, labelnames, child_type,
                        **child_kwargs,
                    )
        if (
            family.child_type is not child_type
            or family.labelnames != tuple(labelnames)
        ):
            raise ReproError(
                f"metric {name!r} already registered as "
                f"{family.type_name} with labels {family.labelnames}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Declare (or fetch) a counter family."""
        return self._register(name, help_text, labelnames, Counter)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Declare (or fetch) a gauge family."""
        return self._register(name, help_text, labelnames, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        """Declare (or fetch) a histogram family (default latency buckets)."""
        if buckets is not None:
            buckets = tuple(buckets)
            if not buckets or any(
                b <= a for a, b in zip(buckets, buckets[1:])
            ):
                raise ReproError(
                    "histogram buckets must be non-empty and strictly "
                    f"increasing, got {buckets}"
                )
        else:
            buckets = DEFAULT_LATENCY_BUCKETS
        return self._register(
            name, help_text, labelnames, Histogram, buckets=buckets
        )

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name (stable export order)."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def reset(self, names: Iterable[str] | None = None) -> int:
        """Zero series; registrations survive.  Returns #families reset.

        With ``names`` given, only those families are reset (missing
        names are ignored) — used by owners that must not clobber
        unrelated instrumentation, e.g. the sharded processor resetting
        only ``repro_shard_*``.  Without ``names``, every family is
        reset.
        """
        if names is None:
            families = self.families()
        else:
            with self._lock:
                families = [
                    self._families[n] for n in names if n in self._families
                ]
        for family in families:
            family._reset()
        if families and logger.isEnabledFor(logging.DEBUG):
            logger.debug("reset %d metric families", len(families))
        return len(families)

    def unregister(self, name: str) -> bool:
        """Drop a family entirely (tests); True when it existed."""
        with self._lock:
            return self._families.pop(name, None) is not None


#: Process-wide default registry used by the built-in instrumentation.
_DEFAULT_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one.

    Every family is looked up in ``registry()`` when it is recorded, so
    the swap captures everything recorded until it is undone; see
    :class:`scoped_registry`.
    """
    global _DEFAULT_REGISTRY
    if not isinstance(new, MetricsRegistry):
        raise ReproError(
            f"set_registry expects a MetricsRegistry, got {type(new).__name__}"
        )
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = new
    return previous


class per_registry:
    """``build(registry)`` looked up once per default registry.

    Calling the instance returns what ``build`` made from the current
    :func:`registry`, built again only after :func:`set_registry` swaps
    it, so hot paths that record into fixed families skip the by-name
    lookups.  A ``reset()`` zeroes series in place and keeps the
    families, so it needs no rebuild; a family dropped with
    :meth:`MetricsRegistry.unregister` is not noticed.
    """

    __slots__ = ("_build", "_bound")

    def __init__(self, build) -> None:
        self._build = build
        # (registry, what was built from it): swapped as one tuple so
        # racing callers never pair a registry with another's families.
        self._bound: tuple = (None, None)

    def __call__(self):
        reg = _DEFAULT_REGISTRY
        bound = self._bound
        if bound[0] is not reg:
            bound = self._bound = (reg, self._build(reg))
        return bound[1]


class scoped_registry:
    """Context manager swapping in a fresh (or given) default registry.

    ::

        with metrics.scoped_registry() as reg:
            sharded.query(q)          # shard metrics land in ``reg``
            assert reg.get("repro_shard_queries") is not None
    """

    def __init__(self, reg: MetricsRegistry | None = None) -> None:
        self.registry = reg if reg is not None else MetricsRegistry()
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc) -> bool:
        assert self._previous is not None
        set_registry(self._previous)
        return False
