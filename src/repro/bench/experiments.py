"""Experiment registry: one entry per table/figure panel of Section 8.

Every panel of the paper's evaluation maps to a registered experiment
(``table3a`` .. ``fig14b``) built from two generic sweeps:

* *scalability panels* (Table 3, Figs. 7, 10, 13) vary a dataset
  parameter — feature cardinality, object cardinality, number of feature
  sets ``c``, vocabulary size — on the synthetic data;
* *query-parameter panels* (Figs. 8, 9, 11, 12, 14) vary a query
  parameter — radius ``r``, ``k``, smoothing ``λ``, queried keywords —
  on the real-like or synthetic data.

Series labels follow the paper: the SRT-index vs the modified IR²-tree,
under STDS or STPS, for the range / influence / nearest-neighbor score
variants.  Additional ``ablation_*`` experiments cover the design choices
DESIGN.md calls out (pulling strategy, buffer size, build method).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.bench.context import BenchContext
from repro.bench.timing import Measurement, measure
from repro.core.query import Variant

INDEXES = ("srt", "ir2")


@dataclass(slots=True)
class ExperimentResult:
    """One panel's worth of measurements."""

    experiment_id: str
    title: str
    paper_ref: str
    x_label: str
    x_values: list
    series: dict[str, list[Measurement]] = field(default_factory=dict)

    def add(self, label: str, measurement: Measurement) -> None:
        self.series.setdefault(label, []).append(measurement)


@dataclass(frozen=True, slots=True)
class Experiment:
    """A registered experiment."""

    experiment_id: str
    title: str
    paper_ref: str
    run: Callable[[BenchContext], ExperimentResult]


REGISTRY: dict[str, Experiment] = {}
GROUPS: dict[str, list[str]] = {}


def _register(experiment: Experiment, group: str) -> None:
    REGISTRY[experiment.experiment_id] = experiment
    GROUPS.setdefault(group, []).append(experiment.experiment_id)
    GROUPS.setdefault("all", []).append(experiment.experiment_id)


# ----------------------------------------------------------------------
# generic sweeps
# ----------------------------------------------------------------------
_DATASET_PARAMS = {
    "features": ("|F_i|", lambda cfg: cfg.cardinality_sweep),
    "objects": ("|O|", lambda cfg: cfg.cardinality_sweep),
    "c": ("number of feature sets c", lambda cfg: cfg.c_sweep),
    "vocab": ("indexed keywords", lambda cfg: cfg.vocab_sweep),
}

_QUERY_PARAMS = {
    "radius": ("radius r", lambda cfg: cfg.radius_sweep),
    "k": ("k", lambda cfg: cfg.k_sweep),
    "lam": ("smoothing parameter λ", lambda cfg: cfg.lam_sweep),
    "keywords": ("queried keywords", lambda cfg: cfg.keywords_sweep),
}

_ALGO_LABEL = {"stds": "STDS", "stps": "STPS"}


def _queries_per_point(ctx: BenchContext, algorithm: str, variant: Variant) -> int:
    if algorithm == "stds":
        return ctx.cfg.stds_queries_per_point
    if variant is Variant.NEAREST:
        return ctx.cfg.nn_queries_per_point
    return ctx.cfg.queries_per_point


def _scalability_sweep(
    ctx: BenchContext,
    experiment_id: str,
    title: str,
    paper_ref: str,
    algorithm: str,
    variant: Variant,
    param: str,
) -> ExperimentResult:
    x_label, xs_fn = _DATASET_PARAMS[param]
    xs = list(xs_fn(ctx.cfg))
    result = ExperimentResult(experiment_id, title, paper_ref, x_label, xs)
    n_queries = _queries_per_point(ctx, algorithm, variant)
    for x in xs:
        build_kw = {
            "features": {"n_feat": x},
            "objects": {"n_obj": x},
            "c": {"c": x},
            "vocab": {"vocab": x},
        }[param]
        feature_sets = ctx.feature_sets(
            c=build_kw.get("c"),
            n=build_kw.get("n_feat"),
            vocab=build_kw.get("vocab"),
        )
        queries = ctx.workload(feature_sets, variant=variant, n_queries=n_queries)
        for index in INDEXES:
            processor = ctx.synthetic_processor(index, **build_kw)
            label = f"{_ALGO_LABEL[algorithm]}/{index.upper()}"
            result.add(label, measure(processor, queries, algorithm))
    return result


def _query_param_sweep(
    ctx: BenchContext,
    experiment_id: str,
    title: str,
    paper_ref: str,
    dataset: str,
    variant: Variant,
    param: str,
    algorithm: str = "stps",
) -> ExperimentResult:
    x_label, xs_fn = _QUERY_PARAMS[param]
    xs = list(xs_fn(ctx.cfg))
    result = ExperimentResult(experiment_id, title, paper_ref, x_label, xs)
    n_queries = _queries_per_point(ctx, algorithm, variant)
    if dataset == "real":
        feature_sets = ctx.real().feature_sets
        processor_of = ctx.real_processor
    else:
        feature_sets = ctx.feature_sets()
        processor_of = lambda index: ctx.synthetic_processor(index)  # noqa: E731
    for x in xs:
        workload_kw = {
            "radius": {"radius": x},
            "k": {"k": x},
            "lam": {"lam": x},
            "keywords": {"keywords_per_set": x},
        }[param]
        queries = ctx.workload(
            feature_sets, variant=variant, n_queries=n_queries, **workload_kw
        )
        for index in INDEXES:
            label = f"{_ALGO_LABEL[algorithm]}/{index.upper()}"
            result.add(label, measure(processor_of(index), queries, algorithm))
    return result


def _make_scalability(
    experiment_id: str,
    title: str,
    paper_ref: str,
    algorithm: str,
    variant: Variant,
    param: str,
    group: str,
) -> None:
    def run(ctx: BenchContext) -> ExperimentResult:
        return _scalability_sweep(
            ctx, experiment_id, title, paper_ref, algorithm, variant, param
        )

    _register(Experiment(experiment_id, title, paper_ref, run), group)


def _make_query_param(
    experiment_id: str,
    title: str,
    paper_ref: str,
    dataset: str,
    variant: Variant,
    param: str,
    group: str,
) -> None:
    def run(ctx: BenchContext) -> ExperimentResult:
        return _query_param_sweep(
            ctx, experiment_id, title, paper_ref, dataset, variant, param
        )

    _register(Experiment(experiment_id, title, paper_ref, run), group)


# ----------------------------------------------------------------------
# Table 3 — STDS scalability (synthetic)
# ----------------------------------------------------------------------
for _suffix, _param in zip("abcd", ("features", "objects", "c", "vocab")):
    _make_scalability(
        f"table3{_suffix}",
        f"STDS execution time vs {_DATASET_PARAMS[_param][0]} (synthetic)",
        "Table 3",
        "stds",
        Variant.RANGE,
        _param,
        group="table3",
    )

# ----------------------------------------------------------------------
# Figure 7 — STPS scalability (synthetic, range score)
# ----------------------------------------------------------------------
for _suffix, _param in zip("abcd", ("features", "objects", "c", "vocab")):
    _make_scalability(
        f"fig7{_suffix}",
        f"STPS vs {_DATASET_PARAMS[_param][0]} (synthetic, range score)",
        f"Figure 7({_suffix})",
        "stps",
        Variant.RANGE,
        _param,
        group="fig7",
    )

# ----------------------------------------------------------------------
# Figures 8 & 9 — query parameters (range score)
# ----------------------------------------------------------------------
for _suffix, _param in zip("abcd", ("radius", "k", "lam", "keywords")):
    _make_query_param(
        f"fig8{_suffix}",
        f"STPS vs {_QUERY_PARAMS[_param][0]} (real dataset, range score)",
        f"Figure 8({_suffix})",
        "real",
        Variant.RANGE,
        _param,
        group="fig8",
    )
    _make_query_param(
        f"fig9{_suffix}",
        f"STPS vs {_QUERY_PARAMS[_param][0]} (synthetic, range score)",
        f"Figure 9({_suffix})",
        "synthetic",
        Variant.RANGE,
        _param,
        group="fig9",
    )

# ----------------------------------------------------------------------
# Figure 10 — influence-score scalability (synthetic)
# ----------------------------------------------------------------------
for _suffix, _param in zip("abcd", ("features", "objects", "c", "vocab")):
    _make_scalability(
        f"fig10{_suffix}",
        f"STPS vs {_DATASET_PARAMS[_param][0]} (synthetic, influence score)",
        f"Figure 10({_suffix})",
        "stps",
        Variant.INFLUENCE,
        _param,
        group="fig10",
    )

# ----------------------------------------------------------------------
# Figure 11 — influence, real dataset (k, queried keywords)
# ----------------------------------------------------------------------
_make_query_param(
    "fig11a",
    "STPS vs k (real dataset, influence score)",
    "Figure 11(a)",
    "real",
    Variant.INFLUENCE,
    "k",
    group="fig11",
)
_make_query_param(
    "fig11b",
    "STPS vs queried keywords (real dataset, influence score)",
    "Figure 11(b)",
    "real",
    Variant.INFLUENCE,
    "keywords",
    group="fig11",
)

# ----------------------------------------------------------------------
# Figure 12 — influence, synthetic, query parameters
# ----------------------------------------------------------------------
for _suffix, _param in zip("abcd", ("radius", "k", "lam", "keywords")):
    _make_query_param(
        f"fig12{_suffix}",
        f"STPS vs {_QUERY_PARAMS[_param][0]} (synthetic, influence score)",
        f"Figure 12({_suffix})",
        "synthetic",
        Variant.INFLUENCE,
        _param,
        group="fig12",
    )

# ----------------------------------------------------------------------
# Figure 13 — nearest-neighbor scalability (synthetic)
# ----------------------------------------------------------------------
_make_scalability(
    "fig13a",
    "STPS vs |F_i| (synthetic, nearest-neighbor score)",
    "Figure 13(a)",
    "stps",
    Variant.NEAREST,
    "features",
    group="fig13",
)
_make_scalability(
    "fig13b",
    "STPS vs |O| (synthetic, nearest-neighbor score)",
    "Figure 13(b)",
    "stps",
    Variant.NEAREST,
    "objects",
    group="fig13",
)

# ----------------------------------------------------------------------
# Figure 14 — nearest-neighbor, varying k (real + synthetic)
# ----------------------------------------------------------------------
_make_query_param(
    "fig14a",
    "STPS vs k (real dataset, nearest-neighbor score)",
    "Figure 14(a)",
    "real",
    Variant.NEAREST,
    "k",
    group="fig14",
)
_make_query_param(
    "fig14b",
    "STPS vs k (synthetic, nearest-neighbor score)",
    "Figure 14(b)",
    "synthetic",
    Variant.NEAREST,
    "k",
    group="fig14",
)


# ----------------------------------------------------------------------
# Ablations (extensions; DESIGN.md Section 7)
# ----------------------------------------------------------------------
def _ablation_pulling(ctx: BenchContext) -> ExperimentResult:
    """Prioritized pulling (Definition 5) vs round-robin."""
    from repro.core.combinations import PULL_PRIORITIZED, PULL_ROUND_ROBIN
    from repro.core.stps import stps as run_stps

    xs = list(ctx.cfg.c_sweep)
    result = ExperimentResult(
        "ablation_pulling",
        "STPS pulling strategy: prioritized vs round-robin (synthetic)",
        "Section 6.3 (pulling strategy)",
        "number of feature sets c",
        xs,
    )
    import time

    for c in xs:
        feature_sets = ctx.feature_sets(c=c)
        queries = ctx.workload(feature_sets, n_queries=ctx.cfg.queries_per_point)
        processor = ctx.synthetic_processor("srt", c=c)
        for pulling, label in (
            (PULL_PRIORITIZED, "STPS/prioritized"),
            (PULL_ROUND_ROBIN, "STPS/round-robin"),
        ):
            total_ms = io_ms = reads = pulls = combos = 0.0
            for query in queries:
                processor.clear_buffers()
                t0 = time.perf_counter()
                res = run_stps(
                    processor.object_tree,
                    processor.feature_trees,
                    query,
                    pulling=pulling,
                )
                total_ms += (time.perf_counter() - t0) * 1e3
                total_ms += res.stats.io_time_s * 1e3
                io_ms += res.stats.io_time_s * 1e3
                reads += res.stats.io_reads
                pulls += res.stats.features_pulled
                combos += res.stats.combinations
            n = len(queries)
            result.add(
                label,
                Measurement(
                    n, total_ms / n, (total_ms - io_ms) / n, io_ms / n,
                    reads / n, 0.0, combos / n, 0.0, pulls / n,
                ),
            )
    return result


def _ablation_buffer(ctx: BenchContext) -> ExperimentResult:
    """Effect of the LRU buffer-pool size on physical I/O."""
    sizes = [16, 64, 256, 1024]
    result = ExperimentResult(
        "ablation_buffer",
        "STPS physical reads vs buffer-pool size (synthetic, SRT)",
        "storage-substrate ablation",
        "buffer pages",
        sizes,
    )
    from repro.core.processor import QueryProcessor

    feature_sets = ctx.feature_sets()
    queries = ctx.workload(feature_sets)
    for pages in sizes:
        processor = QueryProcessor.build(
            ctx.objects(),
            feature_sets,
            index="srt",
            page_size=ctx.cfg.page_size,
            buffer_pages=pages,
        )
        # Warm runs WITHOUT clearing buffers between queries: the point is
        # cross-query caching.
        result.add("STPS/SRT", measure(processor, queries, cold_cache=False))
    return result


def _ablation_build(ctx: BenchContext) -> ExperimentResult:
    """Bulk-loaded vs insert-built SRT index, query-time comparison."""
    from repro.core.processor import QueryProcessor

    methods = ["bulk", "insert"]
    result = ExperimentResult(
        "ablation_build",
        "STPS on bulk-loaded vs insert-built SRT index (synthetic)",
        "Section 4.2 (bulk insertion)",
        "build method",
        methods,
    )
    feature_sets = ctx.feature_sets()
    queries = ctx.workload(feature_sets)
    for method in methods:
        processor = QueryProcessor.build(
            ctx.objects(),
            feature_sets,
            index="srt",
            page_size=ctx.cfg.page_size,
            buffer_pages=ctx.cfg.buffer_pages,
            method=method,
        )
        result.add("STPS/SRT", measure(processor, queries))
    return result


def _ablation_influence_algo(ctx: BenchContext) -> ExperimentResult:
    """Paper's STPS (Alg. 5) vs the combination-free ISS extension.

    STPS enumerates every combination above the k-th score (cost grows
    with the product of per-set candidate counts); ISS searches the
    object tree directly (cost linear in c).  The crossover sits around
    c = 3.
    """
    xs = [c for c in ctx.cfg.c_sweep if c <= 3]
    result = ExperimentResult(
        "ablation_influence_algo",
        "Influence score: STPS (Alg. 5) vs ISS extension (synthetic)",
        "Section 7.1 + DESIGN.md extensions",
        "number of feature sets c",
        xs,
    )
    for c in xs:
        feature_sets = ctx.feature_sets(c=c)
        queries = ctx.workload(
            feature_sets,
            variant=Variant.INFLUENCE,
            n_queries=ctx.cfg.nn_queries_per_point,
        )
        processor = ctx.synthetic_processor("srt", c=c)
        for algorithm in ("stps", "iss"):
            result.add(
                f"{algorithm.upper()}/SRT",
                measure(processor, queries, algorithm),
            )
    return result


_register(
    Experiment(
        "ablation_influence_algo",
        "Influence algorithm ablation",
        "Section 7.1",
        _ablation_influence_algo,
    ),
    group="ablations",
)
_register(
    Experiment(
        "ablation_pulling",
        "Pulling-strategy ablation",
        "Section 6.3",
        _ablation_pulling,
    ),
    group="ablations",
)
_register(
    Experiment(
        "ablation_buffer",
        "Buffer-pool ablation",
        "substrate",
        _ablation_buffer,
    ),
    group="ablations",
)
_register(
    Experiment(
        "ablation_build",
        "Build-method ablation",
        "Section 4.2",
        _ablation_build,
    ),
    group="ablations",
)


def resolve(names: list[str]) -> list[Experiment]:
    """Expand experiment ids and group names into experiment objects."""
    ids: list[str] = []
    for name in names:
        if name in GROUPS:
            ids.extend(GROUPS[name])
        elif name in REGISTRY:
            ids.append(name)
        else:
            known = sorted(set(REGISTRY) | set(GROUPS))
            raise KeyError(f"unknown experiment {name!r}; known: {known}")
    # Preserve order, drop duplicates.
    seen: set[str] = set()
    unique = [i for i in ids if not (i in seen or seen.add(i))]
    return [REGISTRY[i] for i in unique]
