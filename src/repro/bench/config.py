"""Benchmark configuration: parameter grids at three scales.

``paper()`` is the grid of Table 2 verbatim.  ``default()`` divides the
cardinalities by 10 and the query count by 20 so the whole suite runs on
a laptop in pure Python; ``quick()`` shrinks further for CI.  The
reproduced *shapes* (who wins, growth rates,
crossovers) are scale-stable — EXPERIMENTS.md records the scale used for
each reported run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace


@dataclass(frozen=True, slots=True)
class BenchConfig:
    """Parameter grid for the experiment harness (paper Table 2)."""

    # dataset parameters
    object_cardinality: int = 10_000
    feature_cardinality: int = 10_000
    cardinality_sweep: tuple[int, ...] = (5_000, 10_000, 25_000, 50_000)
    c: int = 2
    c_sweep: tuple[int, ...] = (2, 3, 4, 5)
    vocab_size: int = 128
    vocab_sweep: tuple[int, ...] = (64, 128, 192, 256)
    real_scale: float = 0.1
    # query parameters.  The paper uses r = 0.01 at |O| = 100K; scaled-down
    # grids scale r by sqrt(100K / |O|) to keep the expected number of
    # in-range objects (~pi r^2 |O|) constant, otherwise STPS degenerates
    # into draining the feature streams for near-empty neighborhoods.
    radius: float = 0.032
    radius_sweep: tuple[float, ...] = (0.016, 0.032, 0.064, 0.128, 0.256)
    k: int = 10
    k_sweep: tuple[int, ...] = (5, 10, 20, 40, 80)
    lam: float = 0.5
    lam_sweep: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    keywords_per_set: int = 3
    keywords_sweep: tuple[int, ...] = (1, 3, 5, 7, 9)
    # harness parameters
    queries_per_point: int = 20
    stds_queries_per_point: int = 3
    nn_queries_per_point: int = 10
    seed: int = 0
    page_size: int = 4096
    # Per-index LRU buffer: sized to hold the upper tree levels but not
    # the leaves, so leaf-level accesses are physical reads (the paper's
    # indexes are disk-resident).
    buffer_pages: int = 48

    @classmethod
    def default(cls) -> "BenchConfig":
        """Laptop-scale grid (1/10 of the paper's cardinalities)."""
        return cls()

    @classmethod
    def quick(cls) -> "BenchConfig":
        """Small grid for CI runs."""
        return cls(
            object_cardinality=2_000,
            feature_cardinality=2_000,
            cardinality_sweep=(1_000, 2_000, 4_000),
            c_sweep=(2, 3),
            vocab_size=64,
            vocab_sweep=(64, 128),
            real_scale=0.03,
            radius=0.07,
            radius_sweep=(0.035, 0.07, 0.14),
            k_sweep=(5, 10, 20),
            lam_sweep=(0.1, 0.5, 0.9),
            keywords_sweep=(1, 3, 5),
            queries_per_point=5,
            stds_queries_per_point=2,
            nn_queries_per_point=3,
        )

    @classmethod
    def paper(cls) -> "BenchConfig":
        """The full grid of Table 2 (hours of pure-Python runtime)."""
        return cls(
            object_cardinality=100_000,
            feature_cardinality=100_000,
            cardinality_sweep=(50_000, 100_000, 500_000, 1_000_000),
            vocab_size=128,
            real_scale=1.0,
            radius=0.01,
            radius_sweep=(0.005, 0.01, 0.02, 0.04, 0.08),
            queries_per_point=1000,
            stds_queries_per_point=10,
            nn_queries_per_point=100,
        )

    @classmethod
    def from_env(cls) -> "BenchConfig":
        """Scale selected by ``REPRO_BENCH_SCALE`` (quick|default|paper)."""
        scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
        factory = {
            "quick": cls.quick,
            "default": cls.default,
            "paper": cls.paper,
        }.get(scale)
        if factory is None:
            raise ValueError(
                f"REPRO_BENCH_SCALE={scale!r}; use quick, default or paper"
            )
        return factory()

    def with_overrides(self, **kwargs) -> "BenchConfig":
        """Copy with individual fields replaced."""
        return replace(self, **kwargs)
