"""Columnar (numpy) views of leaf nodes for vectorized scoring.

Scoring a leaf one entry at a time in pure Python dominates STDS/STPS
CPU time: each entry costs an attribute walk, a Jaccard popcount and a
float blend.  A leaf page stores its entries as columns
(:mod:`repro.index.nodes`), so the arrays here are read-only views over
the cached page payload — ``x``/``y``/``score`` as float64 plus the
keyword masks as one row of little-endian words per entry — and a whole
leaf is scored with a handful of array operations (``np.bitwise_count``
for the popcounts) without any per-entry object.

The views are built on first use and cached on the
:class:`~repro.index.nodes.Node` object itself, so the node cache
(:mod:`repro.storage.node_cache`) keeps them — and the memoised
:class:`LeafRun` of each query that scored the leaf — across queries;
``RTreeBase.write_node`` drops them whenever a node is rewritten.

This is the only way a leaf is scored, which is why the package needs
numpy >= 2.0 (``np.bitwise_count``).  A scored feature leaf is a
:class:`LeafRun` (``FeatureTree.leaf_run``); its vector expressions
mirror the per-entry formulas ``FeatureScorer.leaf_score`` /
``leaf_relevant`` operation for operation, so the values are
bit-identical to them — the tests hold the run to that reference.

A level-1 node (its children are leaves) may cache a
:class:`SiblingBlock` in the same node slot: its children's columns
concatenated, so a stream that finds all the children cached scores
them in one pass (``FeatureTree.score_leaves``) — numpy's per-call
overhead, not the arithmetic, is what a 91-row leaf costs.  The block
names the arrays it was built from and is rebuilt when a child's
differ; ``write_node`` and eviction drop it with the node.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.index.nodes import Node, leaf_columns

def pack_mask(mask: int, n_bytes: int):
    """One keyword bit mask as a ``(n_bytes,)`` uint8 array.

    Bits beyond ``n_bytes * 8`` are truncated — callers that need exact
    union sizes keep the full popcount separately (see
    ``FeatureScorer.leaf_run``).
    """
    clipped = mask & ((1 << (n_bytes * 8)) - 1)
    return np.frombuffer(clipped.to_bytes(n_bytes, "little"), dtype=np.uint8)


#: Max distinct ``(query_mask, lam)`` runs memoised per leaf.  A run
#: holds the leaf's text-relevant rows only — a float and an index
#: each, ~50 bytes a row, so ~0.7 KB where 11 of a leaf's 91 rows share
#: a keyword with the query — and even at the cap a 1000-leaf tree holds
#: ~45 MB of runs; ``FeatureScorer.leaf_run`` wipes a leaf's memo
#: wholesale when the cap is hit (repeated-query workloads rarely
#: exceed it).
SCORE_MEMO_CAP = 64


class LeafRun:
    """A feature leaf scored against one query: one immutable sorted run.

    Holds the text-relevant rows only (``sim > 0``, Definition 2), best
    first: ``neg_scores[i]`` is ``-s(t)`` of the feature in row
    ``rows[i]`` of the leaf's ``fids`` / ``xs`` / ``ys`` columns, ordered
    by descending score with ties in row order.  ``neg_scores`` is a
    list of Python floats, negated because that is what a min-heap keys
    on; ``rows`` is an index array, so a consumer gathers columns in
    bulk (``run.xs[run.rows]``) or reads one feature when it takes it
    (``run.xs.item(run.rows.item(i))``).  A run is never mutated, so
    concurrent queries share it.
    """

    __slots__ = ("neg_scores", "rows", "fids", "xs", "ys")

    def __init__(self, neg_scores: list, rows, fids, xs, ys) -> None:
        self.neg_scores = neg_scores
        self.rows = rows
        self.fids = fids
        self.xs = xs
        self.ys = ys


class FeatureLeafArrays:
    """Columns of a feature leaf payload: ids, locations, scores, masks.

    ``memo`` is the leaf's only per-query state: the :class:`LeafRun` of
    each ``(mask, lam)`` that scored it, filled, keyed and capped by
    ``FeatureScorer.leaf_run`` alone — STDS reopening the same leaf once
    per object chunk, and repeated-query workloads, then score each leaf
    once per distinct query.  The memo lives and dies with the arrays
    object, which ``Node.invalidate_arrays`` drops whenever the node is
    rewritten, so it can never go stale.
    """

    __slots__ = ("fids", "xs", "ys", "scores", "masks", "mask_pops", "memo")

    def __init__(self, payload: bytes, mask_bytes: int) -> None:
        self.memo: dict = {}
        self.fids, self.xs, self.ys, self.scores, self.masks = leaf_columns(
            payload, mask_bytes
        )
        # Exact per-entry popcounts |t.W|, used to derive union sizes.
        self.mask_pops = np.bitwise_count(self.masks).sum(axis=1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.xs)


class SiblingBlock:
    """The feature columns of a level-1 node's leaves, back to back.

    ``parts`` are the children's :class:`FeatureLeafArrays` in entry
    order; ``masks`` / ``mask_pops`` / ``scores`` are their columns
    concatenated, ``leaf_of`` names each row's part and ``starts`` each
    part's first row, so ``FeatureScorer.sibling_runs`` scores all the
    leaves with one set of array operations.  Cached on the level-1
    node by :func:`sibling_block`.
    """

    __slots__ = ("parts", "masks", "mask_pops", "scores", "leaf_of", "starts")

    def __init__(self, parts: list) -> None:
        self.parts = parts
        sizes = [len(arrays) for arrays in parts]
        self.masks = np.concatenate([arrays.masks for arrays in parts])
        self.mask_pops = np.concatenate([arrays.mask_pops for arrays in parts])
        self.scores = np.concatenate([arrays.scores for arrays in parts])
        self.leaf_of = np.repeat(np.arange(len(parts)), sizes)
        self.starts = np.cumsum([0] + sizes[:-1])


class ObjectLeafArrays:
    """Columns of an object leaf payload: ids and locations."""

    __slots__ = ("oids", "xs", "ys")

    def __init__(self, payload: bytes) -> None:
        self.oids, self.xs, self.ys = leaf_columns(payload)

    def __len__(self) -> int:
        return len(self.oids)


def feature_leaf_arrays(node: Node, mask_bytes: int) -> FeatureLeafArrays:
    """Cached columnar view of a feature leaf."""
    cached = node._leaf_arrays
    if isinstance(cached, FeatureLeafArrays):
        return cached
    arrays = node._leaf_arrays = FeatureLeafArrays(node.payload, mask_bytes)
    return arrays


def object_leaf_arrays(node: Node) -> ObjectLeafArrays:
    """Cached columnar view of an object leaf."""
    cached = node._leaf_arrays
    if isinstance(cached, ObjectLeafArrays):
        return cached
    arrays = node._leaf_arrays = ObjectLeafArrays(node.payload)
    return arrays


def sibling_block(node: Node, parts: list) -> SiblingBlock:
    """Cached :class:`SiblingBlock` of a level-1 node over ``parts``.

    Rebuilt unless it was built from exactly these arrays objects: a
    child rewritten, or evicted and read again, has new arrays, and a
    rewrite of the level-1 node itself drops the block
    (``Node.invalidate_arrays``), as does its eviction.
    """
    cached = node._leaf_arrays
    if (
        isinstance(cached, SiblingBlock)
        and len(cached.parts) == len(parts)
        and all(map(operator.is_, cached.parts, parts))
    ):
        return cached
    block = node._leaf_arrays = SiblingBlock(parts)
    return block
