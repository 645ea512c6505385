"""Boot a demo query service over a synthetic world.

The README's "Serving queries" quickstart::

    PYTHONPATH=src python -m repro.serve --port 8080

builds a synthetic dataset, mounts :class:`~repro.serve.http.ServeServer`
(query endpoint + metrics and traces on one port) and prints a few
ready-to-paste example requests.

Ctrl-C stops the server.
"""

from __future__ import annotations

import argparse
import json
import logging
import time

from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.data.workload import WorkloadSpec, make_workload
from repro.obs import requests as _requests
from repro.serve.http import ServeServer
from repro.serve.quota import QuotaSpec
from repro.serve.service import QueryService, ServeConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--objects", type=int, default=20_000)
    parser.add_argument("--features", type=int, default=10_000)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--vocab", type=int, default=64)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--quota-rate", type=float, default=None,
        help="default per-tenant requests/second (unlimited if omitted)",
    )
    parser.add_argument(
        "--quota-burst", type=float, default=None,
        help="default per-tenant burst (defaults to 2x rate)",
    )
    parser.add_argument(
        "--no-request-traces", action="store_true",
        help="disable the tail-sampled request trace store",
    )
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    # The README's tracing walkthrough runs against this server, so the
    # tail-sampled store is on by default here (the library default
    # stays off).
    if not args.no_request_traces:
        _requests.configure(enabled_=True)

    objects = synthetic_objects(args.objects, seed=args.seed)
    feature_sets = synthetic_feature_sets(
        args.sets, args.features, args.vocab, seed=args.seed + 1
    )
    processor = QueryProcessor.build(objects, feature_sets, index="srt")

    if args.quota_rate is not None:
        burst = args.quota_burst or max(1.0, 2 * args.quota_rate)
        default_quota = QuotaSpec(rate=args.quota_rate, burst=burst)
    else:
        default_quota = QuotaSpec()

    executor = QueryExecutor(processor, max_workers=args.workers)
    service = QueryService(executor, ServeConfig(default_quota=default_quota))
    server = ServeServer(service, host=args.host, port=args.port).start()

    # One data-shaped example request, so the quickstart is paste-ready.
    example = make_workload(
        feature_sets, WorkloadSpec(n_queries=1, seed=args.seed + 7)
    )[0]
    body = {
        "tenant": "demo", "algorithm": "stps", "k": example.k,
        "radius": example.radius, "lam": example.lam,
        "masks": list(example.keyword_masks),
    }
    base = f"http://{args.host}:{server.port}"
    print(f"query service on {base}")
    print(f"  POST {base}/query        e.g. {json.dumps(body)}")
    print(f"  GET  {base}/stats/serve  (admission/cache/quota state)")
    if not args.no_request_traces:
        print(f"  GET  {base}/traces.json  (tail-sampled request traces)")
    print(f"  GET  {base}/metrics      (Prometheus scrape)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
        executor.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
