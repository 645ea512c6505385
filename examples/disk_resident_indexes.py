#!/usr/bin/env python3
"""Disk-resident indexes: persistence, buffers and I/O accounting.

Demonstrates the storage substrate of the reproduction:

1. datasets saved/loaded as JSON lines;
2. the SRT-index built directly on an on-disk page file and reopened in
   a new process-lifetime (via the metadata page);
3. the effect of the node cache's size (``buffer_pages``) on physical
   page reads — the quantity behind the dark (I/O) bar segments in the
   paper's figures.

Run:  python examples/disk_resident_indexes.py
"""

import os
import tempfile

from repro import PreferenceQuery, QueryProcessor
from repro.core.stds import compute_score
from repro.data import (
    load_features,
    save_features,
    synthetic_features,
    synthetic_objects,
)
from repro.index.rtree_base import RTreeBase
from repro.index.srt import SRTIndex
from repro.storage.pagefile import DiskPageFile


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-demo-")
    print(f"working directory: {workdir}")

    # 1. dataset persistence ------------------------------------------
    features = synthetic_features(5000, vocabulary=64, seed=9, label="restaurants")
    dataset_path = os.path.join(workdir, "restaurants.jsonl")
    save_features(features, dataset_path)
    reloaded = load_features(dataset_path)
    size_kb = os.path.getsize(dataset_path) / 1024
    print(f"1. saved+reloaded {len(reloaded)} features ({size_kb:.0f} KiB)")

    # 2. on-disk index + reopen ----------------------------------------
    index_path = os.path.join(workdir, "restaurants.srt")
    tree = SRTIndex.build(reloaded, pagefile=DiskPageFile(index_path))
    tree.pagefile.flush()
    pages = tree.pagefile.page_count
    tree.pagefile.close()
    print(
        f"2. built SRT-index on disk: {pages} pages "
        f"({os.path.getsize(index_path) / 1024:.0f} KiB), reopening..."
    )

    pagefile = DiskPageFile(index_path)
    meta = RTreeBase.read_meta(pagefile)
    reopened = SRTIndex(meta["vocab_size"], pagefile)
    reopened.root_id = meta["root"]
    reopened.height = meta["height"]
    reopened.count = meta["count"]
    query = PreferenceQuery(k=3, radius=0.1, lam=0.5, keyword_masks=(0b111,))
    score = compute_score(reopened, query, 0b111, (0.5, 0.5))
    print(f"   reopened index answers: tau_i((0.5, 0.5)) = {score:.4f}")
    pagefile.close()

    # 3. node-cache size effect ----------------------------------------
    objects = synthetic_objects(5000, seed=10)
    print("3. physical reads per query vs buffer size (same workload):")
    for buffer_pages in (8, 32, 128, 512):
        processor = QueryProcessor.build(
            objects, [features], buffer_pages=buffer_pages
        )
        q = PreferenceQuery(k=10, radius=0.05, lam=0.5, keyword_masks=(0b1011,))
        processor.reset_stats()
        for _ in range(5):
            processor.query(q)
        reads = processor.object_tree.stats.reads + sum(
            t.stats.reads for t in processor.feature_trees
        )
        hits = processor.object_tree.stats.buffer_hits + sum(
            t.stats.buffer_hits for t in processor.feature_trees
        )
        print(
            f"   buffer={buffer_pages:4d} pages: "
            f"{reads / 5:7.1f} physical reads/query "
            f"({hits / (reads + hits) * 100:5.1f}% hit rate)"
        )


if __name__ == "__main__":
    main()
