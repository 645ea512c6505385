"""Core algorithms: STDS, STPS and the score variants."""

from repro.core.bruteforce import brute_force, component_score, object_score
from repro.core.combinations import (
    PULL_PRIORITIZED,
    PULL_ROUND_ROBIN,
    Combination,
    CombinationIterator,
)
from repro.core.executor import BatchReport, QueryExecutor
from repro.core.influence import stps_influence
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, ResultItem
from repro.core.stds import (
    compute_score,
    compute_score_influence,
    compute_score_nearest,
    compute_scores_batch,
    stds,
)
from repro.core.stps import stps, stps_nearest
from repro.core.stream import FeatureStream, StreamedFeature, virtual_feature
from repro.core.voronoi import clip_voronoi_cell, nearest_relevant, voronoi_cell

__all__ = [
    "PULL_PRIORITIZED",
    "PULL_ROUND_ROBIN",
    "BatchReport",
    "Combination",
    "CombinationIterator",
    "FeatureStream",
    "PreferenceQuery",
    "QueryExecutor",
    "QueryProcessor",
    "QueryResult",
    "QueryStats",
    "ResultItem",
    "StreamedFeature",
    "Variant",
    "brute_force",
    "clip_voronoi_cell",
    "component_score",
    "compute_score",
    "compute_score_influence",
    "compute_score_nearest",
    "compute_scores_batch",
    "nearest_relevant",
    "object_score",
    "stds",
    "stps",
    "stps_influence",
    "stps_nearest",
    "virtual_feature",
    "voronoi_cell",
]
