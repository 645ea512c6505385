"""Core algorithms: STDS, STPS and the score variants."""

from repro.core.bruteforce import brute_force, component_score, object_score
from repro.core.combinations import Combination, CombinationIterator
from repro.core.executor import BatchReport, QueryExecutor
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.core.results import QueryResult, QueryStats, ResultItem
from repro.core.stds import compute_score, compute_scores_batch, stds
from repro.core.stps import stps
from repro.core.stream import (
    FeatureStream,
    StreamedFeature,
    probe,
    virtual_feature,
)
from repro.core.voronoi import clip_voronoi_cell, voronoi_cell

__all__ = [
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
    "compute_scores_batch",
    "object_score",
    "probe",
    "stds",
    "stps",
    "virtual_feature",
    "voronoi_cell",
]
