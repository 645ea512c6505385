"""Declarative SLOs: error budgets and multi-window burn-rate alerts.

An SLO states an *objective* — "99.5% of queries answer within 100 ms
over the accounting window".  This module evaluates such objectives
against a :class:`~repro.obs.timeseries.TimeSeriesRing` and produces the
same machine-readable verdict shape the perf sentinel
(:mod:`repro.obs.regress`) emits; ``python -m repro.obs --telemetry``
writes it as ``slo_verdict.json``.

Two SLO kinds cover the workloads the engine runs today:

* :class:`LatencySLO` — an observation is *good* when it lands in a
  histogram bucket whose upper bound is <= the threshold.  The
  threshold therefore snaps to a bucket boundary (log-bucket factor 2
  by default); :meth:`LatencySLO.effective_threshold` reports the bound
  actually enforced so the verdict is honest about the rounding.
* :class:`AvailabilitySLO` — good/bad from a pair of counters
  (total vs. bad events, e.g. queries vs. executor failures).

Burn rate follows the SRE-workbook definition: the rate at which the
error budget is being consumed, normalized so ``1.0`` means "exactly on
budget" — ``burn = (bad/total) / (1 - objective)``.  An alert pairs a
long and a short window and fires only when **both** exceed the factor:
the long window proves the burn is sustained, the short window proves
it is *still* happening (fast reset once the incident ends).  The
default pairs are scaled to the ring's 10-minute retention rather than
the workbook's 1 h/6 h pairs; override per-alert in ``SLO.json``.

``SLO.json`` at the repo root commits the defaults; :func:`load_slos`
parses it and :func:`evaluate_slos` turns a ring into verdicts.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.obs.timeseries import TimeSeriesRing


@dataclass(frozen=True, slots=True)
class BurnRateAlert:
    """A (long, short) window pair with a burn-rate firing factor."""

    name: str
    long_window_s: float
    short_window_s: float
    factor: float

    def __post_init__(self) -> None:
        if self.short_window_s <= 0 or self.long_window_s <= 0:
            raise ReproError(f"alert windows must be > 0: {self}")
        if self.short_window_s > self.long_window_s:
            raise ReproError(
                f"alert short window exceeds long window: {self}"
            )
        if self.factor <= 0:
            raise ReproError(f"alert factor must be > 0: {self}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "long_window_s": self.long_window_s,
            "short_window_s": self.short_window_s,
            "factor": self.factor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BurnRateAlert":
        return cls(
            name=str(d["name"]),
            long_window_s=float(d["long_window_s"]),
            short_window_s=float(d["short_window_s"]),
            factor=float(d["factor"]),
        )


#: Default alert pairs, scaled to the ring's 10-minute retention.  The
#: factors mirror the SRE-workbook multi-window policy (a fast burn that
#: would exhaust the budget in ~1/14th of the accounting window pages;
#: a slower sustained burn tickets).
DEFAULT_ALERTS: tuple[BurnRateAlert, ...] = (
    BurnRateAlert("fast_burn", long_window_s=60.0, short_window_s=15.0,
                  factor=14.4),
    BurnRateAlert("slow_burn", long_window_s=300.0, short_window_s=60.0,
                  factor=6.0),
)


class SLO:
    """Base: a named objective over good/bad events in a window."""

    kind = "base"

    def __init__(
        self,
        name: str,
        objective: float,
        description: str = "",
        window_s: float = 300.0,
        alerts: tuple[BurnRateAlert, ...] = DEFAULT_ALERTS,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ReproError(
                f"objective must be in (0, 1), got {objective}"
            )
        if window_s <= 0:
            raise ReproError(f"window must be > 0, got {window_s}")
        self.name = name
        self.objective = objective
        self.description = description
        self.window_s = window_s
        self.alerts = tuple(alerts)

    # subclasses implement: (good, bad, total) counts inside the window
    def counts(
        self, ring: TimeSeriesRing, window_s: float
    ) -> tuple[float, float, float]:
        raise NotImplementedError

    def burn_rate(self, ring: TimeSeriesRing, window_s: float) -> float:
        """Error-budget consumption rate over a window (1.0 = on budget)."""
        _, bad, total = self.counts(ring, window_s)
        if total <= 0:
            return 0.0
        return (bad / total) / (1.0 - self.objective)

    def evaluate(self, ring: TimeSeriesRing) -> dict:
        """Machine-readable verdict: budget accounting + alert states."""
        good, bad, total = self.counts(ring, self.window_s)
        budget_total = (1.0 - self.objective) * total
        consumed_fraction = (
            bad / budget_total if budget_total > 0
            else (math.inf if bad > 0 else 0.0)
        )
        alerts = []
        firing = False
        for alert in self.alerts:
            long_burn = self.burn_rate(ring, alert.long_window_s)
            short_burn = self.burn_rate(ring, alert.short_window_s)
            is_firing = (
                long_burn >= alert.factor and short_burn >= alert.factor
            )
            firing = firing or is_firing
            alerts.append({
                **alert.to_dict(),
                "long_burn_rate": long_burn,
                "short_burn_rate": short_burn,
                "firing": is_firing,
            })
        exhausted = bad > budget_total
        verdict = {
            "slo": self.name,
            "kind": self.kind,
            "description": self.description,
            "objective": self.objective,
            "window_s": self.window_s,
            "total": total,
            "good": good,
            "bad": bad,
            "error_budget": {
                "total": budget_total,
                "consumed": bad,
                "remaining": budget_total - bad,
                "consumed_fraction": consumed_fraction,
                "exhausted": exhausted,
            },
            "alerts": alerts,
            "firing": firing,
            "ok": not exhausted and not firing,
        }
        return verdict

    def _base_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "description": self.description,
            "window_s": self.window_s,
            "alerts": [a.to_dict() for a in self.alerts],
        }

    def to_dict(self) -> dict:
        raise NotImplementedError


class LatencySLO(SLO):
    """Fraction of histogram observations at or under a threshold.

    "Good" is decided from bucket counts, so the effective threshold is
    the largest bucket upper bound <= the requested one.
    """

    kind = "latency"

    def __init__(
        self,
        name: str,
        objective: float,
        metric: str,
        threshold_s: float,
        labels: dict | None = None,
        **kwargs,
    ) -> None:
        super().__init__(name, objective, **kwargs)
        if threshold_s <= 0:
            raise ReproError(f"threshold must be > 0, got {threshold_s}")
        self.metric = metric
        self.threshold_s = threshold_s
        self.labels = dict(labels) if labels else None

    def effective_threshold(self, ring: TimeSeriesRing) -> float | None:
        """The bucket bound actually enforced (None before any sample)."""
        buckets = ring.buckets(self.metric)
        if not buckets:
            return None
        idx = bisect_right(buckets, self.threshold_s)
        return buckets[idx - 1] if idx > 0 else 0.0

    def counts(
        self, ring: TimeSeriesRing, window_s: float
    ) -> tuple[float, float, float]:
        buckets = ring.buckets(self.metric)
        counts, _, total = ring.window_hist(
            self.metric, window_s, self.labels
        )
        if not buckets or not total:
            return 0.0, 0.0, float(total)
        idx = bisect_right(buckets, self.threshold_s)
        good = float(sum(counts[:idx]))
        return good, float(total) - good, float(total)

    def evaluate(self, ring: TimeSeriesRing) -> dict:
        verdict = super().evaluate(ring)
        verdict["metric"] = self.metric
        verdict["threshold_s"] = self.threshold_s
        verdict["effective_threshold_s"] = self.effective_threshold(ring)
        if self.labels:
            verdict["labels"] = dict(self.labels)
        return verdict

    def to_dict(self) -> dict:
        d = self._base_dict()
        d.update({"metric": self.metric, "threshold_s": self.threshold_s})
        if self.labels:
            d["labels"] = dict(self.labels)
        return d


class AvailabilitySLO(SLO):
    """Fraction of total-counter events not matched by a bad counter."""

    kind = "availability"

    def __init__(
        self,
        name: str,
        objective: float,
        total_metric: str,
        bad_metric: str,
        labels: dict | None = None,
        **kwargs,
    ) -> None:
        super().__init__(name, objective, **kwargs)
        self.total_metric = total_metric
        self.bad_metric = bad_metric
        self.labels = dict(labels) if labels else None

    def counts(
        self, ring: TimeSeriesRing, window_s: float
    ) -> tuple[float, float, float]:
        total = ring.delta(self.total_metric, window_s, self.labels)
        bad = min(ring.delta(self.bad_metric, window_s, self.labels), total)
        return total - bad, bad, total

    def evaluate(self, ring: TimeSeriesRing) -> dict:
        verdict = super().evaluate(ring)
        verdict["total_metric"] = self.total_metric
        verdict["bad_metric"] = self.bad_metric
        if self.labels:
            verdict["labels"] = dict(self.labels)
        return verdict

    def to_dict(self) -> dict:
        d = self._base_dict()
        d.update({
            "total_metric": self.total_metric,
            "bad_metric": self.bad_metric,
        })
        if self.labels:
            d["labels"] = dict(self.labels)
        return d


_KINDS = {"latency": LatencySLO, "availability": AvailabilitySLO}


def slo_from_dict(d: dict) -> SLO:
    """Rebuild an SLO from its ``to_dict`` / ``SLO.json`` form."""
    kind = d.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise ReproError(
            f"unknown SLO kind {kind!r} (expected one of {sorted(_KINDS)})"
        )
    common = {
        "name": str(d["name"]),
        "objective": float(d["objective"]),
        "description": str(d.get("description", "")),
        "window_s": float(d.get("window_s", 300.0)),
        "alerts": tuple(
            BurnRateAlert.from_dict(a) for a in d["alerts"]
        ) if "alerts" in d else DEFAULT_ALERTS,
    }
    if cls is LatencySLO:
        return LatencySLO(
            metric=str(d["metric"]),
            threshold_s=float(d["threshold_s"]),
            labels=d.get("labels"),
            **common,
        )
    return AvailabilitySLO(
        total_metric=str(d["total_metric"]),
        bad_metric=str(d["bad_metric"]),
        labels=d.get("labels"),
        **common,
    )


def default_slos() -> list[SLO]:
    """The engine's built-in objectives (mirrored in ``SLO.json``)."""
    return [
        LatencySLO(
            name="query_latency_p95_100ms",
            objective=0.95,
            metric="repro_query_seconds",
            threshold_s=0.1,
            description="95% of queries answer within ~100ms "
                        "(bucket-snapped) over the accounting window.",
        ),
        AvailabilitySLO(
            name="query_availability",
            objective=0.999,
            total_metric="repro_queries_total",
            bad_metric="repro_executor_failures_total",
            description="99.9% of queries complete without an executor "
                        "failure.",
        ),
        LatencySLO(
            name="serve_latency_p99_100ms",
            objective=0.99,
            metric="repro_serve_request_seconds",
            threshold_s=0.1,
            description="99% of serving requests (admission + execution) "
                        "answer within ~100ms (bucket-snapped) over the "
                        "accounting window; the serving layer's "
                        "backpressure gate enforces the same threshold.",
        ),
    ]


def load_slos(path: str | Path) -> list[SLO]:
    """Parse an ``SLO.json`` document: ``{"slos": [...]}`` or a list."""
    doc = json.loads(Path(path).read_text())
    items = doc["slos"] if isinstance(doc, dict) else doc
    if not isinstance(items, list):
        raise ReproError(f"SLO document must hold a list, got {type(items)}")
    return [slo_from_dict(d) for d in items]


def evaluate_slos(
    slos: list[SLO], ring: TimeSeriesRing
) -> dict:
    """Verdicts for every SLO plus a roll-up, sentinel-style."""
    verdicts = [slo.evaluate(ring) for slo in slos]
    return {
        "slos": verdicts,
        "firing": any(v["firing"] for v in verdicts),
        "exhausted": any(
            v["error_budget"]["exhausted"] for v in verdicts
        ),
        "ok": all(v["ok"] for v in verdicts),
    }


def serve_tenant_template(slos: list[SLO] | None = None) -> LatencySLO:
    """The per-tenant latency SLO shape, derived from the committed one.

    Objective / threshold / window / alerts come from the serving-path
    latency SLO (metric ``repro_serve_request_seconds``) when one is
    present in ``slos``, so the fleet-wide commitment and the per-tenant
    breakdown never drift apart; the target metric is the tenant-labeled
    ``repro_serve_tenant_seconds`` histogram.
    """
    base = None
    for candidate in slos or ():
        if (
            isinstance(candidate, LatencySLO)
            and candidate.metric == "repro_serve_request_seconds"
        ):
            base = candidate
            break
    if base is None:
        return LatencySLO(
            name="serve_tenant_latency",
            objective=0.99,
            metric="repro_serve_tenant_seconds",
            threshold_s=0.1,
            description="Per-tenant serving latency objective.",
        )
    return LatencySLO(
        name=f"{base.name}_by_tenant",
        objective=base.objective,
        metric="repro_serve_tenant_seconds",
        threshold_s=base.threshold_s,
        description=f"Per-tenant breakdown of {base.name}.",
        window_s=base.window_s,
        alerts=base.alerts,
    )


def evaluate_tenant_slos(
    ring: TimeSeriesRing,
    slos: list[SLO] | None = None,
    label: str = "tenant",
) -> dict:
    """Per-tenant latency SLO verdicts, keyed by tenant label value.

    Tenants are discovered from the ring itself (every label value the
    tenant-latency histogram has taken inside the ring's horizon), so
    an idle tenant ages out together with its samples.
    """
    template = serve_tenant_template(slos)
    verdicts: dict[str, dict] = {}
    for tenant in ring.label_values(template.metric, label):
        scoped = LatencySLO(
            name=f"{template.name}[{tenant}]",
            objective=template.objective,
            metric=template.metric,
            threshold_s=template.threshold_s,
            labels={label: tenant},
            description=template.description,
            window_s=template.window_s,
            alerts=template.alerts,
        )
        verdicts[tenant] = scoped.evaluate(ring)
    return verdicts
