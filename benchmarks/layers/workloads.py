"""The six workloads: set-up, timed closed loop, output verification.

Every workload drives public API only.  All loops are *closed*: a
client sends its next operation when the previous one has returned, so
with at most ``nproc`` (2) clients no queue builds and the quota and
backpressure gates are measured on their pass-through path only.

A timed window runs operations in seeded order until ``seconds`` have
passed (or, if the program got much faster, the pre-generated inputs
are used up).  ``timed`` runs one slice of it and may be called again:
it carries on where the last slice stopped.  Queries come from the
world's fixed pool (see ``worlds``); the seed decides which of them a
window reaches and in what order.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import random
import socket
import sys
import threading
import traceback
from dataclasses import dataclass
from time import perf_counter

import worlds
from repro.core.executor import QueryExecutor
from repro.core.processor import QueryProcessor
from repro.live.dataset import LiveDataset
from repro.serve.http import ServeServer
from repro.serve.service import QueryService, ServeConfig
from spans import traceparent

SCORE_TOL = 1e-9
#: Timed answers re-checked per run, spread evenly over the window;
#: past the first eight, checking stops when the time budget is spent (an
#: STDS reference costs 0.15-0.35 s on the c=2 world).
VERIFY_SAMPLES = 20
VERIFY_MIN = 8
VERIFY_BUDGET_S = 1.5
OTHER = {"stps": "stds", "stds": "stps"}
TENANT = "bench"
#: Stock knobs except the backpressure gate's queue-wait target, 100 ms in
#: ``ServeConfig()``.  The gate sheds every cache miss once the p95 of
#: recent executor queue waits exceeds the target, and with fewer than
#: twenty samples that p95 is their maximum: one worker wake-up that the
#: shared host delays by 0.1 s during warm-up would turn the following
#: requests into 429s, which the benchmark counts as failures.  The gate
#: still runs on every miss (its pass-through path, which is all a closed
#: loop of two clients can measure); it is only never tripped.
QUEUE_WAIT_TARGET_S = 30.0
#: Requests pre-drawn per ``serve_hot`` client and second of window, four
#: times what the reference box completes.
HOT_OPS_CAP_PER_S = 6000


@dataclass(slots=True)
class Sample:
    """One timed operation; also the request's ``client`` span."""

    kind: str
    key: tuple
    t0: float
    t1: float
    ok: bool
    rid: str | None = None
    #: ``(query, algorithm, [(oid, score), ...])`` where kept for checking.
    answer: tuple | None = None
    #: Speed correction of the slice it ran in (see ``calibrate``).
    scale: float = 1.0


def ranked(items) -> list[tuple[int, float]]:
    return [(item.oid, item.score) for item in items]


def answers_differ(got, expected) -> bool:
    """True unless same oids in the same order, scores within 1e-9."""
    differ = len(got) != len(expected) or any(
        g_oid != e_oid or abs(g_score - e_score) > SCORE_TOL
        for (g_oid, g_score), (e_oid, e_score) in zip(got, expected)
    )
    if differ:
        print(f"answers differ: got {got}, expected {expected}",
              file=sys.stderr)
    return differ


def cross_check(processor, samples) -> int:
    """Mismatches among evenly spaced timed answers vs the other algorithm.

    STPS answers are recomputed with STDS and vice versa, directly on
    the processor, so for the serving workloads one comparison covers
    both "the HTTP body equals the direct answer" and "the two
    algorithms agree".
    """
    kept = [s for s in samples if s.ok and s.answer is not None]
    step = max(1, len(kept) // VERIFY_SAMPLES)
    reference: dict = {}
    bad = 0
    give_up = perf_counter() + VERIFY_BUDGET_S
    for i, sample in enumerate(kept[::step][:VERIFY_SAMPLES]):
        if i >= VERIFY_MIN and perf_counter() > give_up:
            break
        query, algorithm, got = sample.answer
        if (query, algorithm) not in reference:
            reference[query, algorithm] = ranked(
                processor.query(query, algorithm=OTHER[algorithm]).items
            )
        bad += answers_differ(got, reference[query, algorithm])
    return bad


class Workload:
    """Common shape; subclasses fill in set-up, loop and checks."""

    name: str
    world: worlds.World
    #: The operation class whose median latency is ``op_p50_ms``.
    primary: str
    #: Whether the client span is an HTTP round trip.
    http = False
    #: Queries the phase pass replays (fixed, so its sums compare).
    phase_queries = 12

    def counters(self, st) -> dict:
        """Cumulative serve-side counts; the traced run reports deltas."""
        return {}

    def teardown(self, st) -> None:
        pass


@dataclass(slots=True)
class DirectState:
    objects: object
    feature_sets: list
    raw: QueryProcessor
    processor: object
    ops: list
    queries: list
    #: Operations the slices so far have run.
    done: int = 0


class Direct(Workload):
    """Serial ``QueryProcessor.query`` calls, STPS and STDS interleaved.

    One pass over the pool is ``cycles`` cycles of ``cycle[0]`` STPS and
    ``cycle[1]`` STDS queries, each algorithm going through its share of
    the pool in a fresh seeded order; a window is about one pass and
    wraps into the next if the program got faster.  Nothing below
    ``QueryProcessor.query`` caches results, so a repeated query costs
    what it cost the first time.
    """

    primary = "stps"

    def __init__(self, name, world, buffer_pages, cycle, cycles, warmup,
                 ops_cap_per_s, phase_queries=12):
        self.name = name
        self.world = world
        self.buffer_pages = buffer_pages
        #: ``(n_stps, n_stds)`` per cycle of the interleaving.
        self.cycle = cycle
        self.cycles = cycles
        self.warmup = warmup
        self.ops_cap_per_s = ops_cap_per_s
        self.phase_queries = phase_queries

    def setup(self, seed, seconds, instr) -> DirectState:
        order_seed, _ = worlds.derive_seeds(seed)
        objects, feature_sets = worlds.datasets(self.world)
        raw = instr.build(self.world, objects, feature_sets, self.buffer_pages)
        warm_stps, n_warm = self.warmup[0], sum(self.warmup)
        per_cycle = dict(zip(("stps", "stds"), self.cycle))
        pool = worlds.query_pool(
            self.world, feature_sets, n_warm + max(self.cycle) * self.cycles
        )
        warm, queries = pool[:n_warm], pool[n_warm:]
        for i, query in enumerate(warm):
            raw.query(query, algorithm="stps" if i < warm_stps else "stds")
        rng = random.Random(order_seed)
        ops = []
        while len(ops) < seconds * self.ops_cap_per_s:
            order = {
                algorithm: rng.sample(queries[: n * self.cycles], n * self.cycles)
                for algorithm, n in per_cycle.items()
            }
            for c in range(self.cycles):
                for algorithm, n in per_cycle.items():
                    ops.extend(
                        (algorithm, query)
                        for query in order[algorithm][c * n:(c + 1) * n]
                    )
        return DirectState(
            objects, feature_sets, raw, instr.processor(raw), ops, queries
        )

    def timed(self, st, seconds, instr) -> list[Sample]:
        samples = []
        query = st.processor.query
        deadline = perf_counter() + seconds
        for seq in range(st.done, len(st.ops)):
            algorithm, q = st.ops[seq]
            rid = instr.request_id()
            answer = None
            t0 = perf_counter()
            try:
                with instr.scope(rid):
                    result = query(q, algorithm=algorithm)
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            t1 = perf_counter()
            if ok:
                answer = (q, algorithm, ranked(result.items))
            samples.append(Sample(algorithm, (0, seq), t0, t1, ok, rid, answer))
            # Stop on a cycle boundary, so every window has the same
            # STPS : STDS make-up and ops_per_s does not depend on where
            # in a cycle the clock ran out.
            if t1 >= deadline and (seq + 1) % sum(self.cycle) == 0:
                break
        st.done += len(samples)
        return samples

    def verify(self, st, samples) -> int:
        return cross_check(st.raw, samples)


@dataclass(slots=True)
class ServeState:
    objects: object
    feature_sets: list
    raw: QueryProcessor
    live: LiveDataset
    executor: QueryExecutor
    service: QueryService
    #: What a client calls: the (possibly proxied) service.
    front: object
    server: ServeServer | None
    queries: list
    bodies: list
    ops: list
    #: Operations the slices so far have run: a count, or one per client.
    done: object = 0


def _serve_stack(world, instr, with_server: bool) -> ServeState:
    objects, feature_sets = worlds.datasets(world)
    raw = instr.build(world, objects, feature_sets, 256)
    live = LiveDataset(raw, objects, feature_sets)
    executor = QueryExecutor(instr.processor(raw), max_workers=2)
    service = QueryService(
        instr.executor(executor),
        ServeConfig(latency_slo_s=QUEUE_WAIT_TARGET_S),
        live=live,
    )
    front = instr.service(service)
    server = ServeServer(front, port=0).start() if with_server else None
    return ServeState(
        objects, feature_sets, raw, live, executor, service, front, server,
        [], [], [],
    )


def _body(query) -> bytes:
    return json.dumps({
        "tenant": TENANT, "algorithm": "stps", "k": query.k,
        "radius": query.radius, "lam": query.lam,
        "masks": list(query.keyword_masks),
    }).encode()


def _connect(port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _post(conn, body: bytes, rid: str | None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"}
    if rid is not None:
        headers["traceparent"] = traceparent(rid)
    conn.request("POST", "/query", body, headers)
    response = conn.getresponse()
    return response.status, response.read()


class Serve(Workload):
    """Two keep-alive HTTP clients against the full serving stack."""

    world = worlds.W2
    primary = "req"
    http = True
    clients = 2

    def __init__(self, name, keys, hot, warmup, keep_every):
        self.name = name
        #: Pool queries the window may request.
        self.keys = keys
        #: False = each key requested once at most, in seeded order;
        #: True = all keys pre-warmed, then zipf(1.1) over them.
        self.hot = hot
        self.warmup = warmup
        #: Bodies kept for verification: one in this many per client.
        self.keep_every = keep_every

    def setup(self, seed, seconds, instr) -> ServeState:
        order_seed, _ = worlds.derive_seeds(seed)
        st = _serve_stack(self.world, instr, with_server=True)
        pool = worlds.query_pool(
            self.world, st.feature_sets, self.warmup + self.keys
        )
        warm, st.queries = pool[: self.warmup], pool[self.warmup:]
        st.bodies = [_body(q) for q in st.queries]
        conn = _connect(st.server.port)
        try:
            # Warm-up keys are never requested again; hot keys are
            # filled into the result cache here.
            first = [_body(q) for q in warm]
            for body in first + (st.bodies if self.hot else []):
                status, data = _post(conn, body, None)
                if status != 200:
                    raise RuntimeError(
                        f"warm-up request got {status}: {data[:200]!r}"
                    )
        finally:
            conn.close()
        if self.hot:
            weights = [1.0 / rank ** 1.1 for rank in range(1, self.keys + 1)]
            cumulative = list(itertools.accumulate(weights))
            per_client = int(seconds * HOT_OPS_CAP_PER_S)
            rng = random.Random(order_seed)
            st.ops = [
                [
                    bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
                    for _ in range(per_client)
                ]
                for _ in range(self.clients)
            ]
        else:
            order = random.Random(order_seed).sample(
                range(self.keys), self.keys
            )
            st.ops = [order[client::self.clients]
                      for client in range(self.clients)]
        st.done = [0] * self.clients
        return st

    def timed(self, st, seconds, instr) -> list[Sample]:
        barrier = threading.Barrier(self.clients)
        per_client: list[list[Sample]] = [[] for _ in range(self.clients)]

        def client(index: int) -> None:
            out = per_client[index]
            conn = _connect(st.server.port)
            try:
                barrier.wait()
                deadline = perf_counter() + seconds
                for seq in range(st.done[index], len(st.ops[index])):
                    qi = st.ops[index][seq]
                    rid = instr.request_id()
                    t0 = perf_counter()
                    try:
                        status, data = _post(conn, st.bodies[qi], rid)
                    except (OSError, http.client.HTTPException):
                        traceback.print_exc()
                        out.append(Sample(
                            "req", (index, seq), t0, perf_counter(), False, rid
                        ))
                        break
                    t1 = perf_counter()
                    if status != 200:
                        print(f"{self.name}: request {index}.{seq} got "
                              f"{status}: {data[:200]!r}", file=sys.stderr)
                    answer = None
                    if status == 200 and seq % self.keep_every == 0:
                        answer = (st.queries[qi], "stps", data)
                    out.append(Sample(
                        "req", (index, seq), t0, t1, status == 200, rid, answer
                    ))
                    if t1 >= deadline:
                        break
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index, out in enumerate(per_client):
            st.done[index] += len(out)
        return [sample for out in per_client for sample in out]

    def verify(self, st, samples) -> int:
        for sample in samples:
            if sample.answer is not None:
                query, algorithm, data = sample.answer
                items = json.loads(data)["items"]
                sample.answer = (
                    query, algorithm, [(it["oid"], it["score"]) for it in items]
                )
        return cross_check(st.raw, samples)

    def counters(self, st) -> dict:
        return _serve_counters(st)

    def teardown(self, st) -> None:
        st.server.close()
        st.executor.close()


def _serve_counters(st) -> dict:
    cache = st.service.cache.describe()
    rejected = st.service.describe()["rejected"]
    return {
        "hits": cache["hits"], "misses": cache["misses"],
        "stale": cache["stale"], "epoch": cache["epoch"],
        "rejected_quota": rejected["quota"],
        "rejected_backpressure": rejected["backpressure"],
    }


class LiveMixed(Workload):
    """One thread mixing mutations with served reads (one write in five).

    Single-threaded because what a query racing a mutation may observe
    is undefined today (ROADMAP).
    """

    name = "live_mixed"
    world = worlds.W2
    primary = "req"
    read_keys = 40
    #: One operation in this many is a write, at a seeded position
    #: within each group, so every window has the same 20 % write share.
    write_every = 5
    ops_cap_per_s = 400
    #: Final-state queries compared against a from-scratch rebuild.
    rebuild_checks = 10

    def setup(self, seed, seconds, instr) -> ServeState:
        _, ops_seed = worlds.derive_seeds(seed)
        st = _serve_stack(self.world, instr, with_server=False)
        st.queries = worlds.query_pool(
            self.world, st.feature_sets, self.read_keys
        )
        for query in st.queries:
            decision = st.service.handle(TENANT, query, algorithm="stps")
            if decision.status != 200:
                raise RuntimeError(f"pre-warm read got {decision.status}")
        groups = int(seconds * self.ops_cap_per_s) // self.write_every
        rng = random.Random(ops_seed)
        writes = worlds.mutations(
            self.world, st.objects, st.feature_sets, groups, ops_seed + 1
        )
        st.ops = []
        for write in writes:
            group = [
                rng.randrange(len(st.queries))
                for _ in range(self.write_every)
            ]
            group[rng.randrange(self.write_every)] = write
            st.ops.extend(group)
        return st

    def timed(self, st, seconds, instr) -> list[Sample]:
        samples = []
        handle = st.front.handle
        apply = st.live.apply
        deadline = perf_counter() + seconds
        for seq in range(st.done, len(st.ops)):
            op = st.ops[seq]
            rid = instr.request_id()
            t0 = perf_counter()
            try:
                if isinstance(op, int):
                    kind = "req"
                    decision = handle(
                        TENANT, st.queries[op], algorithm="stps", trace_id=rid
                    )
                    ok = decision.status == 200
                else:
                    kind = op.op
                    with instr.scope(rid):
                        apply(op)
                    ok = True
                if not ok:
                    print(f"{self.name}: read {seq} got {decision.status}: "
                          f"{decision.reason}", file=sys.stderr)
            except Exception:
                traceback.print_exc()
                ok = False
            t1 = perf_counter()
            samples.append(Sample(kind, (0, seq), t0, t1, ok, rid))
            if t1 >= deadline and (seq + 1) % self.write_every == 0:
                break
        st.done += len(samples)
        return samples

    def verify(self, st, samples) -> int:
        """Index self-check, then final state vs a from-scratch rebuild."""
        try:
            st.live.check_consistency()
        except Exception:
            return self.rebuild_checks + 1
        rebuilt = QueryProcessor.build(
            st.live.objects_snapshot(), st.live.feature_snapshots()
        )
        return sum(
            answers_differ(
                ranked(st.raw.query(query, algorithm="stps").items),
                ranked(rebuilt.query(query, algorithm="stds").items),
            )
            for query in st.queries[: self.rebuild_checks]
        )

    def counters(self, st) -> dict:
        return _serve_counters(st)

    def teardown(self, st) -> None:
        st.service.close()
        st.executor.close()


WORKLOADS = {
    w.name: w
    for w in (
        # Pool sizes are what the reference box completes in a
        # ten-second window, or a little more.
        Direct("direct_c2_warm", worlds.W2, buffer_pages=256, cycle=(7, 1),
               cycles=28, warmup=(12, 2), ops_cap_per_s=300),
        Direct("direct_c2_cold", worlds.W2, buffer_pages=16, cycle=(5, 1),
               cycles=12, warmup=(6, 1), ops_cap_per_s=300, phase_queries=6),
        Direct("direct_c3", worlds.W3, buffer_pages=256, cycle=(1, 5),
               cycles=256, warmup=(10, 10), ops_cap_per_s=2000,
               phase_queries=20),
        Serve("serve_miss", keys=384, hot=False, warmup=16, keep_every=1),
        Serve("serve_hot", keys=50, hot=True, warmup=0, keep_every=64),
        LiveMixed(),
    )
}
