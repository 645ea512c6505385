"""Incremental Voronoi cells over relevant feature objects (Section 7.2).

The nearest-neighbor STPS variant needs, for each feature ``t_i`` of a
combination, the region whose points have ``t_i`` as their nearest
*relevant* feature in ``F_i`` — the Voronoi cell of ``t_i`` with respect
to the relevant subset of ``F_i`` (see DESIGN.md on the relevance
reading of Definition 7).  Cells are built incrementally:

1. retrieve competing relevant features in increasing distance from the
   site: :func:`repro.core.stream.probe` under the nearest-neighbour
   priority, the walk STDS scores an NN object with;
2. clip the running convex region by the perpendicular bisector of
   (site, competitor);
3. stop once the next competitor is farther than twice the site's
   distance to the farthest region vertex — no later competitor can clip
   the region (triangle inequality), so the cell is exact.

Starting the clipping from the intersection computed so far (instead of
the whole data space) yields the paper's "incrementally ... discard early
combinations for which the intersection becomes empty" behaviour for
free: an empty running region aborts the remaining cells.
"""

from __future__ import annotations

from repro.core.query import Variant
from repro.core.stream import probe
from repro.geometry.halfplane import EPS, bisector_halfplane
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.feature_tree import FeatureScorer, FeatureTree

DATA_SPACE = Rect((0.0, 0.0), (1.0, 1.0))


def clip_voronoi_cell(
    tree: FeatureTree,
    scorer: FeatureScorer,
    site: tuple[float, float],
    site_fid: int,
    region: ConvexPolygon,
) -> ConvexPolygon:
    """Intersect ``region`` with the relevant-Voronoi cell of ``site``.

    Returns the (possibly empty) convex intersection.  Exact: competitors
    are consumed in increasing distance and retrieval stops only when the
    remaining ones provably cannot clip the region.
    """
    if region.is_empty:
        return region
    # The radius plays no part in the nearest-neighbour priority.
    for d, _, fid, x, y in probe(tree, scorer, site, Variant.NEAREST, 0.0):
        if fid == site_fid:
            continue
        if region.is_empty:
            break
        if d > 2.0 * region.max_distance_from(site):
            break
        if abs(x - site[0]) < EPS and abs(y - site[1]) < EPS:
            # Coincident competitor: the bisector is undefined and the
            # tie is broken in the site's favour (stable by feature id).
            continue
        region = region.clip(bisector_halfplane(site, (x, y)))
    return region


def voronoi_cell(
    tree: FeatureTree,
    scorer: FeatureScorer,
    site: tuple[float, float],
    site_fid: int,
    data_space: Rect = DATA_SPACE,
) -> ConvexPolygon:
    """Full relevant-Voronoi cell of a feature within the data space."""
    return clip_voronoi_cell(
        tree, scorer, site, site_fid, ConvexPolygon.from_rect(data_space)
    )
