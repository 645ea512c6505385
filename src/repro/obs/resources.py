"""Process resource sampler: RSS, fds, shm, caches, backpressure.

Latency regressions rarely announce themselves in the query counters
first — they show up as a growing RSS (cache leak), climbing fd counts,
``/dev/shm`` segments that never get unlinked, or an executor queue that
keeps deepening.  :func:`collect` reads those signals and publishes them
as ``repro_resource_*`` gauges; wired as a ``pre_sample`` hook of the
time-series :class:`~repro.obs.timeseries.Sampler`, every ring slot then
carries a consistent point-in-time view of process health next to the
query-rate deltas.

Sources, all stdlib/procfs (no psutil in the image):

* RSS and VM size from ``/proc/self/statm``;
* open fd count from ``/proc/self/fd``;
* shared-memory bytes from the live-segment registry
  :mod:`repro.storage.shm` maintains (owner vs. attached split);
* node-cache occupancy/bytes from the weak instance registry in
  :mod:`repro.storage.node_cache`;
* executor queue depth and in-flight counts from
  :func:`repro.core.executor.live_executors`;
* thread count from :mod:`threading`, child processes from
  :func:`multiprocessing.active_children`.

Everything degrades to 0 when a source is unavailable (non-Linux, no
live instances); a sampler tick never raises.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

from repro.obs import metrics as _metrics

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

#: Gauge names published by :func:`collect` (used by tests/docs).
GAUGES = (
    "repro_resource_rss_bytes",
    "repro_resource_vm_bytes",
    "repro_resource_open_fds",
    "repro_resource_shm_bytes",
    "repro_resource_shm_segments",
    "repro_resource_node_cache_nodes",
    "repro_resource_node_cache_bytes",
    "repro_resource_executor_queue_depth",
    "repro_resource_executor_running",
    "repro_resource_threads",
    "repro_resource_child_processes",
    "repro_resource_serve_cache_entries",
    "repro_resource_serve_cache_bytes",
    "repro_resource_serve_tenants",
)


def _read_statm() -> tuple[int, int]:
    """(rss_bytes, vm_bytes) from procfs; (0, 0) where unavailable."""
    try:
        with open("/proc/self/statm") as f:
            fields = f.read().split()
        return int(fields[1]) * _PAGE_SIZE, int(fields[0]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0, 0


def _count_fds() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0


def collect(reg: "_metrics.MetricsRegistry | None" = None) -> dict:
    """Sample every source and set the gauges; returns the raw values."""
    reg = reg if reg is not None else _metrics.registry()
    rss, vm = _read_statm()

    from repro.core import executor as _executor
    from repro.serve import service as _serve
    from repro.storage import node_cache as _node_cache
    from repro.storage import shm as _shm

    segments = _shm.live_segments()
    caches = _node_cache.live_caches()
    executors = _executor.live_executors()
    services = _serve.live_services()

    values = {
        "repro_resource_rss_bytes": rss,
        "repro_resource_vm_bytes": vm,
        "repro_resource_open_fds": _count_fds(),
        "repro_resource_shm_bytes": sum(s for _, s, _ in segments),
        "repro_resource_shm_segments": len(segments),
        "repro_resource_node_cache_nodes": sum(len(c) for c in caches),
        "repro_resource_node_cache_bytes": sum(
            c.estimated_bytes() for c in caches
        ),
        "repro_resource_executor_queue_depth": sum(
            e.queue_depth for e in executors
        ),
        "repro_resource_executor_running": sum(
            e.running_count for e in executors
        ),
        "repro_resource_threads": threading.active_count(),
        "repro_resource_child_processes": len(
            multiprocessing.active_children()
        ),
        "repro_resource_serve_cache_entries": sum(
            len(s.cache) for s in services
        ),
        "repro_resource_serve_cache_bytes": sum(
            s.cache.estimated_bytes() for s in services
        ),
        "repro_resource_serve_tenants": sum(
            s.quotas.tenant_count() for s in services
        ),
    }
    for name, value in values.items():
        reg.gauge(name, _HELP.get(name, "")).set(float(value))
    return values


_HELP = {
    "repro_resource_rss_bytes": "Resident set size of this process.",
    "repro_resource_vm_bytes": "Virtual memory size of this process.",
    "repro_resource_open_fds": "Open file descriptors.",
    "repro_resource_shm_bytes":
        "Bytes of live SharedMemoryPageFile segments mapped here.",
    "repro_resource_shm_segments":
        "Live SharedMemoryPageFile mappings in this process.",
    "repro_resource_node_cache_nodes":
        "Nodes held across live NodeCache instances.",
    "repro_resource_node_cache_bytes":
        "Page payload bytes held by cached nodes.",
    "repro_resource_executor_queue_depth":
        "Queries submitted but not yet picked up, all executors.",
    "repro_resource_executor_running":
        "Queries currently executing, all executors.",
    "repro_resource_threads": "Live Python threads.",
    "repro_resource_child_processes": "Live multiprocessing children.",
    "repro_resource_serve_cache_entries":
        "Entries across live serving result caches.",
    "repro_resource_serve_cache_bytes":
        "Estimated bytes retained by serving result caches.",
    "repro_resource_serve_tenants":
        "Tenants with live quota buckets, all services.",
}
