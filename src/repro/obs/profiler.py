"""Continuous sampling profiler with trace-store-triggered capture.

"p99 spiked" is only half an answer; the other half is *what the
process was doing* during the spike.  :class:`SamplingProfiler` keeps a
timer thread that snapshots every thread's stack via
``sys._current_frames()`` at a fixed interval and buffers the collapsed
stacks in a bounded ring.  Because sampling is continuous, the stacks
for a slow query exist *before* anyone knew it was slow — when the
trace store admits a trace, a hook retroactively captures the ring
samples overlapping that request's lifetime and files them under its
trace id.  The exemplar on the latency histogram's p99 bucket, the
flight record, and the profiler capture then all join on one id.

Output is flamegraph.pl/speedscope-compatible collapsed-stack text
(``root;child;leaf <count>`` per line) via :meth:`collapsed` /
:meth:`write_collapsed`.

Cost model: the profiler is **off by default** and costs nothing when
off (no thread, and the store hook is only registered while
installed).  When on, each tick walks ``threads x stack-depth`` frames
— at the default 10 ms interval this stays in the low single-digit
percent range (measured in ``benchmarks/bench_telemetry.py``; numbers
in DESIGN §13).  ``sys._current_frames`` takes stacks of *other*
threads without interrupting them; Python guarantees the returned
frames are safe to walk.

Module-level :func:`install` / :func:`uninstall` manage one shared
instance with reference counting, so ``python -m repro.obs --telemetry``
and any embedding caller compose without fighting over lifecycle.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, OrderedDict, deque
from pathlib import Path

from repro.errors import ReproError
from repro.obs import requests as _requests

#: Default sampling interval: 10 ms — coarse enough to stay cheap,
#: fine enough to attribute queries in the tens-of-ms range.
DEFAULT_INTERVAL_S = 0.010

#: Default ring retention in seconds (bounds memory together with the
#: interval: retention / interval samples are kept).
DEFAULT_RETENTION_S = 120.0

#: Most captures kept (newest win); one capture per admitted slow query.
MAX_CAPTURES = 64


def _collapse(frame) -> str:
    """One thread's stack as ``root;...;leaf`` (flamegraph.pl order)."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        filename = code.co_filename.rsplit("/", 1)[-1]
        parts.append(f"{filename}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Periodic whole-process stack sampler (see module docstring)."""

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        retention_s: float = DEFAULT_RETENTION_S,
    ) -> None:
        if interval_s <= 0:
            raise ReproError(f"interval must be > 0, got {interval_s}")
        if retention_s < interval_s:
            raise ReproError(
                f"retention {retention_s} shorter than interval {interval_s}"
            )
        self.interval_s = interval_s
        self.retention_s = retention_s
        maxlen = max(2, int(retention_s / interval_s))
        #: ring of (mono_ts, (collapsed_stack, ...)) — one tuple entry
        #: per thread sampled at that tick.
        self._samples: deque[tuple[float, tuple[str, ...]]] = deque(
            maxlen=maxlen
        )
        self._captures: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._ticks = 0

    # ------------------------------------------------------------------
    # sampling loop
    # ------------------------------------------------------------------
    def _sample_once(self) -> None:
        me = threading.get_ident()
        frames = sys._current_frames()
        stacks = tuple(
            _collapse(frame)
            for tid, frame in frames.items()
            if tid != me
        )
        del frames  # drop frame refs promptly
        with self._lock:
            self._samples.append((time.perf_counter(), stacks))
            self._ticks += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample_once()

    def start(self) -> "SamplingProfiler":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    @property
    def ticks(self) -> int:
        return self._ticks

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _window_samples(
        self, window_s: float | None
    ) -> list[tuple[float, tuple[str, ...]]]:
        with self._lock:
            samples = list(self._samples)
        if window_s is None or not samples:
            return samples
        horizon = time.perf_counter() - window_s
        return [s for s in samples if s[0] >= horizon]

    def collapsed(self, window_s: float | None = None) -> dict[str, int]:
        """``{collapsed_stack: sample_count}`` over the window (or all)."""
        counts: Counter[str] = Counter()
        for _, stacks in self._window_samples(window_s):
            counts.update(stacks)
        return dict(counts)

    def write_collapsed(
        self, path, window_s: float | None = None
    ) -> Path:
        """Write flamegraph.pl-compatible collapsed-stack lines."""
        path = Path(path)
        counts = self.collapsed(window_s)
        with path.open("w") as fh:
            for stack, count in sorted(counts.items()):
                fh.write(f"{stack} {count}\n")
        return path

    # ------------------------------------------------------------------
    # trace-id keyed captures
    # ------------------------------------------------------------------
    def capture(
        self, trace_id: str, lookback_s: float
    ) -> dict:
        """File the last ``lookback_s`` of samples under ``trace_id``.

        Called (via the store hook) right after a slow query is
        admitted, so the window covers that query's execution.  Returns
        the capture record (also retrievable via :meth:`captures`).
        """
        counts: Counter[str] = Counter()
        n = 0
        for _, stacks in self._window_samples(lookback_s):
            counts.update(stacks)
            n += 1
        record = {
            "trace_id": trace_id,
            "ts": time.time(),
            "lookback_s": lookback_s,
            "samples": n,
            "collapsed": dict(counts),
        }
        with self._lock:
            self._captures[trace_id] = record
            self._captures.move_to_end(trace_id)
            while len(self._captures) > MAX_CAPTURES:
                self._captures.popitem(last=False)
        return record

    def captures(self) -> dict[str, dict]:
        """Trace-id keyed captures, oldest first (a copy)."""
        with self._lock:
            return dict(self._captures)

    def capture_for(self, trace_id: str) -> dict | None:
        with self._lock:
            return self._captures.get(trace_id)

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()
            self._captures.clear()
            self._ticks = 0


# ----------------------------------------------------------------------
# module-level shared instance + trace-store trigger
# ----------------------------------------------------------------------
_shared: SamplingProfiler | None = None
_install_count = 0
_state_lock = threading.Lock()

#: Extra window beyond the trace's duration, covering the gap between
#: query completion and hook invocation.
CAPTURE_SLACK_S = 1.0


def _admission_hook(trace) -> None:
    prof = _shared
    if prof is None or not trace.trace_id:
        return
    prof.capture(
        trace.trace_id, lookback_s=trace.duration_s + CAPTURE_SLACK_S
    )


def install(
    interval_s: float = DEFAULT_INTERVAL_S,
    retention_s: float = DEFAULT_RETENTION_S,
) -> bool:
    """Start (or ref-count) the shared profiler + store trigger.

    Returns True when this call actually started it (first installer);
    nested installs just bump the count.  Parameters only apply to the
    first install.
    """
    global _shared, _install_count
    with _state_lock:
        _install_count += 1
        if _shared is not None:
            return False
        _shared = SamplingProfiler(
            interval_s=interval_s, retention_s=retention_s
        ).start()
        _requests.add_hook(_admission_hook)
        return True


def uninstall() -> bool:
    """Drop one install ref; stops the profiler at zero.  True if stopped."""
    global _shared, _install_count
    with _state_lock:
        if _install_count == 0:
            return False
        _install_count -= 1
        if _install_count > 0 or _shared is None:
            return False
        _requests.remove_hook(_admission_hook)
        _shared.stop()
        _shared = None
        return True


def get() -> SamplingProfiler | None:
    """The shared profiler, if installed."""
    return _shared
