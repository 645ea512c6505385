"""Spatial indexes: object R-tree, SRT-index, IR²-tree."""

from repro.index.feature_tree import FeatureScorer, FeatureTree
from repro.index.ir2 import IR2Tree
from repro.index.nodes import (
    FeatureInternalEntry,
    FeatureLeafEntry,
    Node,
    ObjectInternalEntry,
    ObjectLeafEntry,
)
from repro.index.object_rtree import ObjectRTree
from repro.index.rtree_base import RTreeBase
from repro.index.srt import SRTIndex

__all__ = [
    "FeatureInternalEntry",
    "FeatureLeafEntry",
    "FeatureScorer",
    "FeatureTree",
    "IR2Tree",
    "Node",
    "ObjectInternalEntry",
    "ObjectLeafEntry",
    "ObjectRTree",
    "RTreeBase",
    "SRTIndex",
]
