"""Dataset generators, workload generation and persistence."""

from repro.data.io import load_features, load_objects, save_features, save_objects
from repro.data.realworld import RealWorldData, cuisine_vocabulary, real_world
from repro.data.synthetic import (
    cluster_count_for,
    data_keyword_distribution,
    make_vocabulary,
    synthetic_feature_sets,
    synthetic_features,
    synthetic_objects,
)
from repro.data.workload import WorkloadSpec, make_workload

__all__ = [
    "RealWorldData",
    "WorkloadSpec",
    "cluster_count_for",
    "cuisine_vocabulary",
    "data_keyword_distribution",
    "load_features",
    "load_objects",
    "make_vocabulary",
    "make_workload",
    "real_world",
    "save_features",
    "save_objects",
    "synthetic_feature_sets",
    "synthetic_features",
    "synthetic_objects",
]
