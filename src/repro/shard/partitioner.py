"""Spatial partitioning with r-halo feature replication.

Splits the data objects ``O`` into ``S`` disjoint spatial shards and
assigns each shard the feature objects that can influence its objects.
Safety comes straight from the paper's score decomposition: with the
range score (Definition 2), ``τ_i(p)`` only depends on features ``t``
with ``dist(p, t) <= r``, so a shard whose objects live inside ``bbox``
needs exactly the features within Euclidean distance ``r`` of ``bbox`` —
the *r-halo*.  Features in the halo band are replicated into every shard
they can reach; objects are never replicated.

The influence and nearest-neighbor variants (Definitions 6/7) have
unbounded spatial support — an arbitrarily distant feature can still be
the nearest relevant one — so for them the partitioner replicates the
*full* feature sets per shard (``replication="full"``); only the object
side is partitioned.  :class:`~repro.shard.ShardedQueryProcessor`
enforces the matching query shapes at query time.

Two layouts:

* ``"grid"`` — an ``a x b`` grid over the object bounding box with
  ``a·b = S`` and ``|a - b|`` minimal (a prime ``S`` degenerates to
  ``1 x S`` strips).  Cells are equal-sized; deterministic assignment
  puts a point lying exactly on an internal boundary into the
  higher-index cell.
* ``"kd"`` — recursive object-count-balanced median splits along the
  longer bbox side, producing ``S`` leaves with ±1-balanced object
  counts even for heavily skewed data.

Both are deterministic functions of the input datasets, so rebuilding a
partition always yields identical shards.  A partition is read-only once
built: nothing routes later inserts or moves into it, so changing the
data means partitioning again (live updates are single-node,
:class:`~repro.live.LiveDataset`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import ShardError
from repro.geometry.rect import Rect
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject

PARTITION_METHODS = ("grid", "kd")
REPLICATION_MODES = ("halo", "full")


@dataclass(slots=True)
class ShardSpec:
    """One shard: its spatial region plus the datasets assigned to it.

    ``bbox`` is the shard's *assignment region* (objects inside belong to
    the shard); ``radius`` is the halo radius its feature sets were
    replicated with (``inf`` for full replication).
    """

    shard_id: int
    bbox: Rect
    radius: float
    objects: ObjectDataset
    feature_sets: list[FeatureDataset] = field(default_factory=list)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_features(self) -> int:
        return sum(len(fs) for fs in self.feature_sets)

    def describe(self) -> dict:
        """JSON-friendly summary (the processor's layout and benchmarks)."""
        return {
            "shard_id": self.shard_id,
            "bbox": [list(self.bbox.low), list(self.bbox.high)],
            "radius": self.radius,
            "objects": self.n_objects,
            "features": [len(fs) for fs in self.feature_sets],
        }


def partition(
    objects: ObjectDataset,
    feature_sets: Sequence[FeatureDataset],
    shards: int,
    radius: float,
    method: str = "grid",
    replication: str = "halo",
    drop_empty: bool = True,
) -> list[ShardSpec]:
    """Split datasets into ``shards`` specs with halo-replicated features.

    ``radius`` is the largest query radius the partition must support;
    queries with a bigger ``r`` are rejected by the sharded processor
    because their halo would be too thin.  ``drop_empty`` (default)
    removes shards that received no data objects — they can never
    contribute a result — while always keeping at least one shard so an
    empty dataset still builds a valid processor.
    """
    if shards < 1:
        raise ShardError(-1, f"shard count must be >= 1, got {shards}")
    if replication not in REPLICATION_MODES:
        raise ShardError(
            -1, f"unknown replication {replication!r}; choose from "
            f"{REPLICATION_MODES}"
        )
    if replication == "halo" and not (radius > 0.0 and math.isfinite(radius)):
        raise ShardError(
            -1, f"halo radius must be positive and finite, got {radius}"
        )
    if method not in PARTITION_METHODS:
        raise ShardError(
            -1, f"unknown partition method {method!r}; choose from "
            f"{PARTITION_METHODS}"
        )

    domain = _domain(objects)
    if method == "grid":
        regions = grid_regions(domain, shards)
        buckets = _assign_grid(objects, domain, regions)
    else:
        regions, buckets = kd_split(list(objects), domain, shards)

    halo = math.inf if replication == "full" else radius
    specs: list[ShardSpec] = []
    for shard_id, (bbox, members) in enumerate(zip(regions, buckets)):
        specs.append(
            ShardSpec(
                shard_id=shard_id,
                bbox=bbox,
                radius=halo,
                objects=ObjectDataset(members),
                feature_sets=[
                    _halo_features(fs, bbox, halo) for fs in feature_sets
                ],
            )
        )
    if drop_empty:
        kept = [s for s in specs if s.n_objects]
        if kept:
            # Renumber for dense, stable shard ids.
            for i, spec in enumerate(kept):
                spec.shard_id = i
            return kept
        return specs[:1]
    return specs


# ----------------------------------------------------------------------
# layouts
# ----------------------------------------------------------------------
def grid_factors(shards: int) -> tuple[int, int]:
    """``(cols, rows)`` with ``cols*rows == shards`` and minimal skew."""
    best = (1, shards)
    for a in range(1, int(math.isqrt(shards)) + 1):
        if shards % a == 0:
            best = (shards // a, a)
    return best


def grid_regions(domain: Rect, shards: int) -> list[Rect]:
    """Equal-sized grid cells tiling ``domain`` (row-major order)."""
    cols, rows = grid_factors(shards)
    (x0, y0), (x1, y1) = domain.low, domain.high
    w = (x1 - x0) / cols
    h = (y1 - y0) / rows
    cells = []
    for row in range(rows):
        for col in range(cols):
            cells.append(
                Rect(
                    (x0 + col * w, y0 + row * h),
                    (
                        x1 if col == cols - 1 else x0 + (col + 1) * w,
                        y1 if row == rows - 1 else y0 + (row + 1) * h,
                    ),
                )
            )
    return cells


def _assign_grid(
    objects: ObjectDataset, domain: Rect, regions: list[Rect]
) -> list[list[DataObject]]:
    cols, rows = grid_factors(len(regions))
    (x0, y0), (x1, y1) = domain.low, domain.high
    w = (x1 - x0) or 1.0
    h = (y1 - y0) or 1.0
    buckets: list[list[DataObject]] = [[] for _ in regions]
    for obj in objects:
        col = min(int((obj.x - x0) / w * cols), cols - 1)
        row = min(int((obj.y - y0) / h * rows), rows - 1)
        buckets[row * cols + col].append(obj)
    return buckets


def kd_split(
    members: list[DataObject], bbox: Rect, shards: int
) -> tuple[list[Rect], list[list[DataObject]]]:
    """Recursive count-balanced splits along the longer bbox side.

    Splits ``shards`` into ``ceil/floor`` halves, places the cut at the
    proportional order statistic of the member coordinates (midpoint of
    the straddling pair, so points sit strictly inside a half whenever
    coordinates differ), and recurses.  Points exactly on a cut go to the
    upper half — deterministically, mirroring the grid rule.
    """
    if shards == 1 or not members:
        # No members left to split on: emit the region (and empty tails).
        if shards == 1:
            return [bbox], [members]
        regions = [bbox] * shards
        buckets: list[list[DataObject]] = [members] + [
            [] for _ in range(shards - 1)
        ]
        return regions, buckets
    left_shards = (shards + 1) // 2
    axis = 0 if bbox.extent(0) >= bbox.extent(1) else 1
    coords = sorted(m.x if axis == 0 else m.y for m in members)
    if len(coords) >= 2:
        # Cut after the proportional count; midpoint of the straddling
        # pair.
        pivot_idx = max(
            1, min(len(coords) - 1, round(len(coords) * left_shards / shards))
        )
        cut = (coords[pivot_idx - 1] + coords[pivot_idx]) / 2.0
    else:
        # A single member cannot straddle: cut the region itself.
        cut = (bbox.low[axis] + bbox.high[axis]) / 2.0
    lo, hi = bbox.low[axis], bbox.high[axis]
    cut = min(max(cut, lo), hi)
    key = (lambda m: m.x) if axis == 0 else (lambda m: m.y)
    left_members = [m for m in members if key(m) < cut]
    right_members = [m for m in members if key(m) >= cut]
    if axis == 0:
        left_box = Rect(bbox.low, (cut, bbox.high[1]))
        right_box = Rect((cut, bbox.low[1]), bbox.high)
    else:
        left_box = Rect(bbox.low, (bbox.high[0], cut))
        right_box = Rect((bbox.low[0], cut), bbox.high)
    lr, lb = kd_split(left_members, left_box, left_shards)
    rr, rb = kd_split(right_members, right_box, shards - left_shards)
    return lr + rr, lb + rb


# ----------------------------------------------------------------------
# halo replication
# ----------------------------------------------------------------------
def _halo_features(
    feature_set: FeatureDataset, bbox: Rect, radius: float
) -> FeatureDataset:
    """Features within Euclidean ``radius`` of ``bbox`` (its r-halo).

    ``mindist`` is the exact Euclidean point-to-rectangle distance, so a
    feature is kept iff *some* point of the shard region can see it
    within ``radius`` — no corner-cutting approximation.  ``radius=inf``
    keeps everything (full replication).
    """
    if math.isinf(radius):
        members = list(feature_set.features)
    else:
        members = [
            f
            for f in feature_set.features
            if bbox.mindist((f.x, f.y)) <= radius
        ]
    return FeatureDataset(
        members, feature_set.vocabulary, feature_set.label
    )


def _domain(objects: ObjectDataset) -> Rect:
    """Bounding box of the objects (unit square for empty datasets)."""
    if len(objects):
        return Rect.bounding((o.x, o.y) for o in objects)
    return Rect((0.0, 0.0), (1.0, 1.0))
