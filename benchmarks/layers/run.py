"""Layer ledger: the repo's one seeded benchmark.

    python3 benchmarks/layers/run.py [--workload NAME]... [--seed S] [--quick]

runs every workload twice, each pass in a fresh subprocess: an untraced
pass for the end-to-end metrics and a traced pass for the per-layer
ones.  It prints every metric as ``workload metric value unit n``,
writes ``benchmarks/layers/out/results.json`` and exits non-zero if any
output verification fails.  One pass of one workload, in this process,
is

    python3 benchmarks/layers/run.py --workload NAME --seed S --seconds T --trace 0|1

whose last output line is the JSON object ``BENCHMARK.json``'s contract
asks for.  ``--repeat N`` and ``--check-agreement A.json B.json`` are
the repeatability tools.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Slices of an untraced window; the calibration kernel runs between them
#: (21 rounds of 20 ms, 4 % of a window).  A slice ends like a window, on a
#: cycle or write-group boundary, so slow cycles make fewer, longer slices.
SLICES = 20
#: An untraced pass sets up at least this often and until it has spent
#: this long setting up (so the small world's 0.3 s set-up is taken about
#: ten times); ``setup_s`` is the median.
SETUPS = 3
SETUPS_MIN_S = 3.0
QUICK_SECONDS = 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def op_class(kind: str) -> str:
    return kind if kind in ("stps", "stds", "req") else "write"


def latencies_ms(samples) -> dict[str, list[float]]:
    """Speed-corrected latencies of the successful operations, by class."""
    out: dict[str, list[float]] = {}
    for s in samples:
        if s.ok:
            out.setdefault(op_class(s.kind), []).append(
                (s.t1 - s.t0) * s.scale * 1e3
            )
    return out


def window_s(samples) -> float:
    return max(s.t1 for s in samples) - min(s.t0 for s in samples)


def window(workload, st, seconds, instr, gauge) -> list[list]:
    """The timed window as slices with the calibration kernel between them.

    Every sample gets the speed correction of its slice: the kernel's
    nominal seconds over its mean seconds just before and after.
    """
    slices = []
    deadline = perf_counter() + seconds
    before = gauge()
    while perf_counter() < deadline:
        samples = workload.timed(st, seconds / SLICES, instr)
        if not samples:
            break
        after = gauge()
        for sample in samples:
            sample.scale = gauge.correction(before, after)
        slices.append(samples)
        before = after
    return slices


def ratio(part: float, whole: float) -> float:
    """``part / whole``; 0 when the layer saw no traffic at all."""
    return part / whole if whole else 0.0


def set_up(workload, seed, seconds, instr, gauge):
    """Set up repeatedly, keeping the last.

    Also returns ``(seconds, speed correction)`` of each set-up.
    """
    setups = []
    while True:
        before = gauge()
        t0 = perf_counter()
        st = workload.setup(seed, seconds, instr)
        took = perf_counter() - t0
        setups.append((took, gauge.correction(before, gauge())))
        if (len(setups) >= SETUPS
                and sum(took for took, _ in setups) >= SETUPS_MIN_S):
            return st, setups
        workload.teardown(st)
        del st


def untraced_pass(workload, seed, seconds):
    """End-to-end rows ``(metric, value, unit, n)`` plus the failure count."""
    from calibrate import Calibration
    from spans import Plain

    instr = Plain()
    gauge = Calibration()
    st, setups = set_up(workload, seed, seconds, instr, gauge)
    try:
        slices = window(workload, st, seconds, instr, gauge)
        samples = [sample for part in slices for sample in part]
        mismatches = workload.verify(st, samples)
    finally:
        workload.teardown(st)
    raw_wall = sum(window_s(part) for part in slices)
    wall = sum(window_s(part) * part[0].scale for part in slices)
    by_class = latencies_ms(samples)
    primary = by_class[workload.primary]
    failed = sum(not s.ok for s in samples) + mismatches
    rows = [
        ("setup_s", statistics.median(took * scale for took, scale in setups),
         "s", len(setups)),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
        ("op_p50_ms", statistics.median(primary), "ms", len(primary)),
        ("ops_per_s", len(samples) / wall, "1/s", len(samples)),
        # Below: for reading; only the rows above are declared (and
        # bounded) in BENCHMARK.json.  First what the clock said before
        # the speed correction, and the correction itself.
        ("setup_raw_s", statistics.median(took for took, _ in setups), "s",
         len(setups)),
        ("op_p50_raw_ms",
         statistics.median(
             (s.t1 - s.t0) * 1e3 for s in samples
             if s.ok and op_class(s.kind) == workload.primary
         ), "ms", len(primary)),
        ("ops_per_s_raw", len(samples) / raw_wall, "1/s", len(samples)),
        ("speed", statistics.median(part[0].scale for part in slices), "ratio",
         len(slices)),
        # Then the same window per operation class, speed-corrected.
        ("fail_share", failed / len(samples), "ratio", len(samples)),
    ]
    for name, values in sorted(by_class.items()):
        n = len(values)
        rows.append((f"{name}_p50_ms", statistics.median(values), "ms", n))
        # Highest percentile with at least ten samples beyond it.
        for label, q in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
            if n * (1 - q) >= 10:
                rows.append((f"{name}_{label}_ms", percentile(values, q), "ms", n))
                break
        rows.append((f"{name}_qps", n / wall, "1/s", n))
    return rows, len(samples), failed


def traced_pass(workload, seed, seconds):
    """Per-layer rows from the reference, span, phase and micro passes."""
    import passes
    from spans import Plain, Traced, ledger, write_chrome_trace
    from repro.live.dataset import MUTATION_OPS

    # Reference: the untraced loop, in this process, for half the time.
    plain = Plain()
    st = workload.setup(seed, seconds, plain)
    try:
        reference = {
            s.key: s.t1 - s.t0
            for s in workload.timed(st, seconds / 2, plain) if s.ok
        }
    finally:
        workload.teardown(st)
    del st

    # Span pass: the same operations with benchmark-owned spans.
    instr = Traced()
    st = workload.setup(seed, seconds, instr)
    try:
        trees = st.raw.trees()
        io_before = [tree.stats.snapshot() for tree in trees]
        counts_before = workload.counters(st)
        with instr.recording():
            samples = workload.timed(st, seconds, instr)
        io = [
            tree.stats.delta_since(before)
            for tree, before in zip(trees, io_before)
        ]
        counts = {
            key: value - counts_before[key]
            for key, value in workload.counters(st).items()
        }
        mismatches = workload.verify(st, samples)
        queries = st.queries[: workload.phase_queries]
        phase, single_node_s = passes.phase_pass(st.raw, queries)
        micro = passes.micro_pass(st.raw)
        shard = (
            passes.shard_pass(st.objects, st.feature_sets, queries,
                              single_node_s)
            if workload.world.c > 2 else {}
        )
    finally:
        workload.teardown(st)

    spans = instr.rec.spans
    spans.extend(("client", s.t0, s.t1, s.rid) for s in samples)
    OUT.mkdir(exist_ok=True)
    write_chrome_trace(OUT / f"trace-{workload.name}.json", spans)

    ok = [s for s in samples if s.ok]
    primary = [s for s in ok if s.kind == workload.primary]
    book = ledger(spans, [s.rid for s in primary])
    ms = 1e3
    values = {
        "serve.service.self_ms": book["serve.service"] * ms,
        "core.executor.self_ms": book["core.executor"] * ms,
        "core.processor.self_ms": book["core.processor"] * ms,
        "storage.pagefile.self_ms": book["storage.pagefile"] * ms,
        "ledger.residual_share": book["residual_share"],
    }
    if workload.http:
        values["serve.http.self_ms"] = book["client"] * ms
    if instr.hit_durations:
        values["serve.service.hit_ms"] = (
            statistics.mean(instr.hit_durations) * ms
        )
    if instr.queue_waits:
        values["core.executor.queue_wait_p50_ms"] = (
            statistics.median(instr.queue_waits) * ms
        )
        values["core.executor.queue_wait_p95_ms"] = (
            percentile(instr.queue_waits, 0.95) * ms
        )
    if counts:
        lookups = counts["hits"] + counts["misses"] + counts["stale"]
        values.update({
            "serve.cache.hit_rate": ratio(counts["hits"], lookups),
            "serve.cache.stale": counts["stale"],
            "serve.rejected_quota": counts["rejected_quota"],
            "serve.rejected_backpressure": counts["rejected_backpressure"],
        })

    reads = sum(d.reads for d in io)
    logical = reads + sum(d.buffer_hits for d in io)
    lookups = sum(d.node_cache_hits + d.node_cache_misses for d in io)
    read_spans = [t1 - t0 for name, t0, t1, _ in spans if name.endswith(".read")]
    values.update({
        "storage.page_reads": reads / len(samples),
        "storage.buffer_hit_rate": ratio(logical - reads, logical),
        "storage.node_cache_hit_rate": ratio(
            sum(d.node_cache_hits for d in io), lookups
        ),
    })
    if read_spans:
        values["storage.pagefile.read_us"] = statistics.mean(read_spans) * 1e6

    writes = [s for s in ok if s.kind in MUTATION_OPS]
    if writes:
        for kind in MUTATION_OPS:
            of_kind = [s.t1 - s.t0 for s in writes if s.kind == kind]
            if of_kind:
                values[f"live.{kind}_ms"] = statistics.mean(of_kind) * ms
        values["live.page_writes_per_op"] = (
            sum(d.writes for d in io) / len(writes)
        )
        values["live.epoch_bumps"] = counts["epoch"]

    # Overhead of the benchmark's own spans: time with them over time
    # without, on the operations both passes completed.
    shared = [s for s in ok if s.key in reference]
    values["obs.trace_overhead_ratio"] = (
        sum(s.t1 - s.t0 for s in shared)
        / sum(reference[s.key] for s in shared)
    )
    values.update(phase)
    values.update(micro)
    values.update(shard)

    failed = len(samples) - len(ok) + mismatches
    # Every declared per-layer metric is printed; a layer this workload
    # does not run reads 0.
    rows = [
        (m["name"], values.get(m["name"], 0.0), m["unit"], len(primary))
        for m in SPEC["per_layer"]
    ]
    unknown = set(values) - {m["name"] for m in SPEC["per_layer"]}
    if unknown:
        raise SystemExit(f"undeclared per-layer metrics: {sorted(unknown)}")
    return rows, len(samples), failed


def one_pass(args) -> int:
    """One pass of one workload in this process; contract JSON last.

    Failed operations are reported in that object (``correct``,
    ``failed``) and on stderr, not by the exit code: a pass that
    measured and printed its result has run.
    """
    # One CPU for the whole pass, set before numpy sizes its thread
    # pool.  The interpreter lock lets one thread run at a time anyway;
    # left to the scheduler, every hand-over between client, handler and
    # pool threads is a wake-up on the other virtual CPU, which on a
    # shared host costs more than the cached request it serves
    # (serve_hot: 1 300 requests/s unpinned, 2 300 pinned) and varies with
    # the neighbours.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload[0]]
    run = traced_pass if args.trace else untraced_pass
    rows, attempted, failed = run(workload, args.seed, args.seconds)
    for metric, value, unit, n in rows:
        print(workload.name, metric, repr(float(value)), unit, n)
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    by_name = {metric: value for metric, value, _, _ in rows}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(by_name[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


def spawn(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one pass in a fresh interpreter; echo its rows, parse them."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace}: no result "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["rows"] = []
    for line in lines[:-1]:
        print(line, flush=True)
        _, metric, value, unit, n = line.split()
        result["rows"].append(
            {"metric": metric, "value": float(value), "unit": unit, "n": int(n)}
        )
    return result


def run_set(names, seed, seconds) -> tuple[dict, bool]:
    """Both passes of all named workloads, each in its own subprocess."""
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    correct = True
    for name in names:
        passes_ = results["workloads"][name] = {}
        for trace in (0, 1):
            result = spawn(name, seed, seconds, trace)
            passes_[f"trace{trace}"] = result
            correct &= result["correct"]
    return results, correct


def end_to_end_values(results: dict) -> dict[tuple[str, str], float]:
    return {
        (name, metric): entry["value"]
        for name, passes_ in results["workloads"].items()
        for metric, entry in passes_["trace0"]["metrics"].items()
    }


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def repeat(names, seed, seconds, n) -> bool:
    """Each workload's untraced pass on seeds ``seed .. seed+n-1``.

    A workload's ``n`` runs are consecutive, as the driver makes them.
    Only the untraced pass is repeated: the bounded metrics all come
    from it.  Spread is (Q3 - Q1) / median over the runs, quartiles as
    ``statistics.quantiles(values, n=4)`` gives them.
    """
    OUT.mkdir(exist_ok=True)
    runs = [
        {"seed": seed + i, "seconds": seconds, "workloads": {}}
        for i in range(n)
    ]
    correct = True
    for name in names:
        for results in runs:
            result = spawn(name, results["seed"], seconds, trace=0)
            results["workloads"][name] = {"trace0": result}
            correct &= result["correct"]
    for results in runs:
        (OUT / f"results-seed{results['seed']}.json").write_text(
            json.dumps(results, indent=1)
        )
    sets = [end_to_end_values(results) for results in runs]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print("workload metric median q1 q3 spread max_rel_dev bound")
    for key in sets[0]:
        values = [s[key] for s in sets]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (median,) * 3
        print(
            *key, f"{median:.4f} {q1:.4f} {q3:.4f} {(q3 - q1) / median:.4f}",
            f"{max(abs(v - median) for v in values) / median:.4f}",
            bounds[key[1]],
        )
    return correct


def check_agreement(path_a: str, path_b: str) -> bool:
    """Whether B is no worse than A beyond each metric's bound."""
    first = end_to_end_values(json.loads(Path(path_a).read_text()))
    second = end_to_end_values(json.loads(Path(path_b).read_text()))
    declared = {m["name"]: m for m in SPEC["end_to_end"]}
    agree = True
    for (name, key), value in first.items():
        if (name, key) not in second:
            continue
        metric = declared[key]
        worse = worse_by(metric, value, second[name, key])
        verdict = "ok" if worse <= metric["bound"] else "WORSE"
        agree &= verdict == "ok"
        print(name, key, f"{value:.4f} {second[name, key]:.4f}",
              f"{worse:+.4f} bound {metric['bound']} {verdict}")
    return agree


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS}-second windows (smoke runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run this one pass of one workload in-process")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--check-agreement", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = QUICK_SECONDS
    if args.check_agreement:
        return 0 if check_agreement(*args.check_agreement) else 1
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs exactly one --workload")
        return one_pass(args)
    chosen = args.workload or names
    if args.repeat:
        return 0 if repeat(chosen, args.seed, args.seconds, args.repeat) else 1
    results, correct = run_set(chosen, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
