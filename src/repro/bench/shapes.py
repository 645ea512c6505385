"""Automated validation of the paper's qualitative claims.

The reproduction's contract is not matching absolute milliseconds (the
substrate differs) but matching *shapes*: who wins, in which direction a
curve moves, where the extra cost sits.  This module encodes those
claims, one per experiment panel, and checks them against measured
:class:`~repro.bench.experiments.ExperimentResult` objects:

* ``table3*`` — STDS grows with the swept parameter; SRT <= IR².
* ``fig7*`` / ``fig9*`` / ``fig8b`` — SRT beats IR² on average.
* ``fig8a`` — cost decreases as the radius grows (the paper's most
  distinctive curve).
* ``fig8b`` / ``fig9b`` — cost grows with k.
* ``fig8c`` / ``fig9c`` — roughly flat in λ.
* ``fig13*`` / ``fig14*`` — the NN variant's Voronoi share is material.

``repro-bench --check-shapes`` prints one PASS/FAIL line per claim;
EXPERIMENTS.md records the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.experiments import ExperimentResult
from repro.bench.timing import Measurement

# Tolerance for "A is not worse than B" comparisons: averaged over a
# sweep, measurement noise of a few percent must not flip a verdict.
NOISE = 0.10


@dataclass(frozen=True, slots=True)
class ShapeCheck:
    """Outcome of one claim."""

    experiment_id: str
    claim: str
    passed: bool
    detail: str


def _mean_total(measurements: list[Measurement]) -> float:
    return sum(m.total_ms for m in measurements) / len(measurements)


def _series(result: ExperimentResult, substring: str) -> list[Measurement]:
    for label, measurements in result.series.items():
        if substring in label:
            return measurements
    raise KeyError(f"{result.experiment_id}: no series matching {substring!r}")


def _check_srt_wins(result: ExperimentResult) -> ShapeCheck:
    srt = _mean_total(_series(result, "SRT"))
    ir2 = _mean_total(_series(result, "IR2"))
    passed = srt <= ir2 * (1.0 + NOISE)
    return ShapeCheck(
        result.experiment_id,
        "SRT-index <= IR²-tree (mean over sweep)",
        passed,
        f"SRT {srt:.1f}ms vs IR² {ir2:.1f}ms",
    )


def _check_monotone(
    result: ExperimentResult, increasing: bool, claim: str
) -> ShapeCheck:
    """Endpoint monotonicity of the mean-over-series curve."""
    means = [
        sum(ms[i].total_ms for ms in result.series.values())
        / len(result.series)
        for i in range(len(result.x_values))
    ]
    first, last = means[0], means[-1]
    passed = last >= first * (1.0 - NOISE) if increasing else (
        last <= first * (1.0 + NOISE)
    )
    return ShapeCheck(
        result.experiment_id,
        claim,
        passed,
        f"{result.x_label}: {result.x_values[0]} -> {result.x_values[-1]} "
        f"gives {first:.1f}ms -> {last:.1f}ms",
    )


def _check_flat(result: ExperimentResult, claim: str) -> ShapeCheck:
    means = [
        sum(ms[i].total_ms for ms in result.series.values())
        / len(result.series)
        for i in range(len(result.x_values))
    ]
    lo, hi = min(means), max(means)
    passed = hi <= lo * 2.5  # "relatively stable" per the paper
    return ShapeCheck(
        result.experiment_id,
        claim,
        passed,
        f"min {lo:.1f}ms / max {hi:.1f}ms over {result.x_label}",
    )


def _check_voronoi_material(result: ExperimentResult) -> ShapeCheck:
    total = vor = 0.0
    for measurements in result.series.values():
        for m in measurements:
            total += m.total_ms
            vor += m.voronoi_ms
    share = vor / total if total else 0.0
    passed = share >= 0.2
    return ShapeCheck(
        result.experiment_id,
        "Voronoi-cell work is a material share of NN cost",
        passed,
        f"voronoi share {share * 100:.0f}%",
    )


def validate(result: ExperimentResult) -> list[ShapeCheck]:
    """All registered claims that apply to this experiment's panel."""
    eid = result.experiment_id
    checks: list[ShapeCheck] = []
    # SRT <= IR² is claimed for STPS (Figures 7-9).  For STDS (Table 3)
    # the paper reports near-parity; on this substrate the batched scan
    # is spatially driven and the SRT's spatially looser nodes cost more
    # I/O, so no SRT-wins claim is checked there (see EXPERIMENTS.md).
    if eid.startswith(("fig7", "fig8", "fig9")):
        checks.append(_check_srt_wins(result))
    if eid.startswith("table3"):
        checks.append(
            _check_monotone(
                result, increasing=True, claim="STDS cost grows with the parameter"
            )
        )
    if eid in ("fig8a", "fig9a"):
        checks.append(
            _check_monotone(
                result,
                increasing=False,
                claim="range-score cost decreases as r grows",
            )
        )
    if eid in ("fig8b", "fig9b", "fig14b"):
        checks.append(
            _check_monotone(
                result, increasing=True, claim="cost grows with k"
            )
        )
    if eid in ("fig8c", "fig9c", "fig12c"):
        checks.append(
            _check_flat(result, "cost roughly flat in the smoothing λ")
        )
    if eid.startswith(("fig13", "fig14")):
        checks.append(_check_voronoi_material(result))
    return checks


def validate_cross(results: dict[str, ExperimentResult]) -> list[ShapeCheck]:
    """Claims spanning experiments: STPS orders of magnitude below STDS.

    Compares Table 3 panels against the matching Figure 7 panels when a
    run produced both.
    """
    checks: list[ShapeCheck] = []
    for suffix in "abcd":
        stds_result = results.get(f"table3{suffix}")
        stps_result = results.get(f"fig7{suffix}")
        if stds_result is None or stps_result is None:
            continue
        stds_mean = sum(
            _mean_total(ms) for ms in stds_result.series.values()
        ) / len(stds_result.series)
        stps_mean = sum(
            _mean_total(ms) for ms in stps_result.series.values()
        ) / len(stps_result.series)
        checks.append(
            ShapeCheck(
                f"table3{suffix}/fig7{suffix}",
                "STPS is at least 5x faster than STDS",
                stps_mean * 5 <= stds_mean,
                f"STDS {stds_mean:.0f}ms vs STPS {stps_mean:.0f}ms "
                f"({stds_mean / max(stps_mean, 1e-9):.0f}x)",
            )
        )
    return checks


def format_checks(checks: list[ShapeCheck]) -> str:
    """One PASS/FAIL line per claim."""
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"   [{status}] {check.claim} — {check.detail}"
        )
    return "\n".join(lines)
