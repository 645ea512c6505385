"""The expensive diagnostics of a traced run, kept apart from the span pass.

* **phase pass** -- the program's own tracer on, ``explain`` over a fixed
  query prefix: phase seconds, combination/index counts, and what that
  tracer costs (``obs.phase_overhead_ratio``).
* **micro pass** -- every node page of every tree read cold, read warm,
  and its leaf arrays rebuilt.
* **shard pass** -- the STPS prefix again through a 4-shard thread
  fan-out (``direct_c3`` only).

The phase seconds are the program's existing spans: a later change that
moves or renames them may not rest a claim on them.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs import tracing as _tracing
from repro.shard.sharded_processor import (
    ShardedQueryProcessor,
    shard_queries_metric,
)

STPS_PHASES = (
    "feature_pull", "combination_assembly", "threshold_update",
    "get_data_objects",
)
STDS_PHASES = ("scan_objects", "chunk_scan", "threshold_fold")


def _timed(call, *args, **kwargs):
    t0 = perf_counter()
    out = call(*args, **kwargs)
    return out, perf_counter() - t0


def phase_pass(processor, queries) -> tuple[dict, list[float]]:
    """Per-layer metrics from plain-vs-explained runs of both algorithms.

    Each query runs four times back to back -- STPS and STDS, each plain
    and under ``explain`` with tracing on -- so the overhead ratio and
    ``core.stps_over_stds`` compare like with like.  Also returns the
    plain STPS seconds per query (the shard pass's single-node base).
    """
    plain = {"stps": [], "stds": []}
    traced = {"stps": [], "stds": []}
    phases: dict[str, float] = {}
    counts = dict.fromkeys(
        ("released", "rejected_2r", "features_pulled", "stps_scored",
         "stds_scored", "nodes_visited", "nodes_pruned"), 0,
    )
    for query in queries:
        for algorithm in ("stps", "stds"):
            _, seconds = _timed(processor.query, query, algorithm=algorithm)
            plain[algorithm].append(seconds)
            _tracing.set_enabled(True)
            try:
                report, seconds = _timed(
                    processor.explain, query, algorithm=algorithm
                )
            finally:
                _tracing.set_enabled(False)
                _tracing.clear()
            traced[algorithm].append(seconds)
            stats = report.result.stats
            for phase, total in stats.phase_times.items():
                phases[phase] = phases.get(phase, 0.0) + total
            if algorithm == "stds":
                counts["stds_scored"] += stats.objects_scored
                continue
            plan = report.plan
            counts["released"] += plan.combinations.released
            counts["rejected_2r"] += plan.combinations.rejected_2r
            counts["features_pulled"] += stats.features_pulled
            counts["stps_scored"] += stats.objects_scored
            counts["nodes_visited"] += sum(
                fs.nodes_visited for fs in plan.feature_sets
            )
            counts["nodes_pruned"] += sum(
                fs.nodes_pruned for fs in plan.feature_sets
            )
    n = len(queries)
    out = {}
    for algorithm, names in (("stps", STPS_PHASES), ("stds", STDS_PHASES)):
        wall = sum(traced[algorithm])
        for name in names:
            seconds = phases.get(f"{algorithm}.{name}", 0.0)
            out[f"core.{algorithm}.{name}_s"] = seconds
            out[f"core.{algorithm}.{name}_share"] = seconds / wall
    assembled = counts["released"] + counts["rejected_2r"]
    out.update({
        "core.combinations.released": counts["released"] / n,
        "core.combinations.rejected_2r": counts["rejected_2r"] / n,
        "core.combinations.useful_ratio": (
            counts["released"] / assembled if assembled else 0.0
        ),
        "core.stps.features_pulled": counts["features_pulled"] / n,
        "core.stps.objects_scored": counts["stps_scored"] / n,
        "core.stds.objects_scored": counts["stds_scored"] / n,
        "index.nodes_visited": counts["nodes_visited"] / n,
        "index.nodes_pruned": counts["nodes_pruned"] / n,
        "core.stps_over_stds": sum(plain["stps"]) / sum(plain["stds"]),
        "obs.phase_overhead_ratio": (
            (sum(traced["stps"]) + sum(traced["stds"]))
            / (sum(plain["stps"]) + sum(plain["stds"]))
        ),
    })
    return out, plain["stps"]


def _node_pages(tree) -> list[int]:
    pages, stack = [], [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        pages.append(node.page_id)
        if not node.is_leaf:
            stack.extend(entry.child for entry in node.entries)
    return pages


def micro_pass(processor) -> dict:
    """Mean microseconds of one node read (cold, warm) and one leaf pack."""
    cold = warm = pack = 0.0
    n_nodes = n_leaves = 0
    for tree in processor.trees():
        pages = _node_pages(tree)
        # A cache smaller than the tree evicts as it goes, so the warm
        # round re-reads in chunks that fit.
        chunk = max(1, min(len(pages), tree.node_cache.capacity))
        for start in range(0, len(pages), chunk):
            part = pages[start:start + chunk]
            tree.clear_cache()
            _, seconds = _timed(lambda: [tree.read_node(p) for p in part])
            cold += seconds
            _, seconds = _timed(lambda: [tree.read_node(p) for p in part])
            warm += seconds
        n_nodes += len(pages)
        if tree is processor.object_tree:
            continue
        for leaf in tree.iter_leaves():
            leaf.invalidate_arrays()
            _, seconds = _timed(tree.leaf_arrays, leaf)
            pack += seconds
            n_leaves += 1
    return {
        "index.read_node_cold_us": cold / n_nodes * 1e6,
        "index.read_node_warm_us": warm / n_nodes * 1e6,
        "index.leaf_arrays_us": pack / n_leaves * 1e6,
    }


def shard_pass(objects, feature_sets, queries, single_node_s) -> dict:
    """The STPS prefix through four kd shards on threads, one box.

    A one-box speedup well above 1 proves the single-node work is
    super-linear in input size; it must fall toward 1 once the
    combination lattice is fixed.
    """
    outcomes = shard_queries_metric()

    def count(outcome: str) -> float:
        return outcomes.labels(algorithm="stps", outcome=outcome).value

    before = count("executed"), count("pruned")
    with ShardedQueryProcessor.build(
        objects, feature_sets, shards=4, method="kd", radius=0.02
    ) as sharded:
        _, total = _timed(lambda: [sharded.query(q) for q in queries])
    return {
        "shard.s4_total_s": total,
        "shard.s4_speedup": sum(single_node_s) / total,
        "shard.queries_executed": count("executed") - before[0],
        "shard.queries_pruned": count("pruned") - before[1],
    }
