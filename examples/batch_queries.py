#!/usr/bin/env python3
"""Batch query execution: the hot path for repeated-query workloads.

Demonstrates the three layers this library stacks above the serial
:meth:`QueryProcessor.query` call for serving-style workloads where the
same queries arrive again and again:

1. the decoded-node cache (warm after the first pass — traversals stop
   paying the page-decode cost),
2. columnar leaf scoring (a leaf page's bytes are the numpy arrays),
3. the :class:`~repro.core.executor.QueryExecutor` — batch
   deduplication: identical queries in a batch execute once and share
   their immutable result.

Run:  python examples/batch_queries.py
"""

import random
import time

from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.data.synthetic import (
    make_vocabulary,
    synthetic_feature_sets,
    synthetic_objects,
)
from repro.data.workload import WorkloadSpec, make_workload


def main() -> None:
    # ------------------------------------------------------------------
    # A small synthetic world: 3000 hotels, 2 feature sets of 1500 each.
    # ------------------------------------------------------------------
    vocab = make_vocabulary(64)
    objects = synthetic_objects(3000, seed=7)
    feature_sets = synthetic_feature_sets(2, 1500, vocab, seed=8)
    processor = QueryProcessor.build(objects, feature_sets, index="srt")

    # A serving-style workload: 8 distinct queries, each arriving 5x.
    spec = WorkloadSpec(n_queries=8, k=5, radius=0.03, seed=9)
    distinct = make_workload(feature_sets, spec)
    workload = distinct * 5
    random.Random(10).shuffle(workload)

    # ------------------------------------------------------------------
    # One-shot convenience: results come back in input order.
    # ------------------------------------------------------------------
    results = processor.query_many(workload)
    print(f"query_many answered {len(results)} queries")

    # ------------------------------------------------------------------
    # Reusable executor + workload-level accounting.  The executor runs
    # every query on the calling thread; max_workers bounds how many
    # threads may be inside it at once (a server's handlers — here there
    # is one caller, so it never waits).
    # ------------------------------------------------------------------
    with QueryExecutor(processor, max_workers=4) as executor:
        executor.query_many(distinct)  # warm the decoded-node cache
        report = executor.run(workload)
        print(
            f"warm batch: {report.queries} queries in {report.wall_s:.3f}s "
            f"({report.throughput_qps:.0f} q/s, node-cache hit rate "
            f"{report.node_cache_hit_rate:.0%})"
        )

        # Batch dedup (on by default): the 5 copies of each distinct
        # query share one execution and the very same result object.
        first = workload.index(workload[-1])
        assert report.results[-1] is report.results[first]

        # ...and per-position answers are identical to a serial run.
        t0 = time.perf_counter()
        serial = [processor.query(q) for q in workload]
        serial_s = time.perf_counter() - t0
        for a, b in zip(serial, report.results):
            assert a.oids == b.oids and a.scores == b.scores
        print(
            f"serial loop: {serial_s:.3f}s -> batch identical answers "
            f"{serial_s / report.wall_s:.1f}x faster"
        )
    print("batch results match the serial run exactly")


if __name__ == "__main__":
    main()
