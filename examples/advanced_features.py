#!/usr/bin/env python3
"""Advanced features tour: streaming results, ISS.

Demonstrates the extensions this reproduction adds on top of the paper
(see DESIGN.md, Section 7):

1. **incremental streaming** — page through results without re-running
   the query;
2. **ISS** — the combination-free influence algorithm vs the paper's
   Algorithm 5 as the number of feature sets grows.

Run:  python examples/advanced_features.py
"""

import itertools
import time

from repro import PreferenceQuery, QueryProcessor, Variant
from repro.data import synthetic_feature_sets, synthetic_objects


def main() -> None:
    objects = synthetic_objects(5000, seed=21)
    feature_sets = synthetic_feature_sets(3, 5000, vocabulary=64, seed=22)

    # ------------------------------------------------------------------
    # 1. streaming: take 3 results, then 3 more, from one execution
    # ------------------------------------------------------------------
    processor = QueryProcessor.build(objects, feature_sets[:2])
    query = PreferenceQuery.from_terms(
        k=3,
        radius=0.05,
        lam=0.5,
        keywords=[["term0001", "term0005"], ["term0002", "term0009"]],
        feature_sets=feature_sets[:2],
    )
    stream = processor.stream(query)
    first_page = list(itertools.islice(stream, 3))
    second_page = list(itertools.islice(stream, 3))
    print("1. streaming: first page ", [(i.oid, round(i.score, 3)) for i in first_page])
    print("   streaming: second page", [(i.oid, round(i.score, 3)) for i in second_page])

    # ------------------------------------------------------------------
    # 2. ISS vs STPS for the influence variant at c = 3
    # ------------------------------------------------------------------
    print("\n2. influence algorithms at c=3 (exact, same answers):")
    processor3 = QueryProcessor.build(objects, feature_sets)
    q3 = PreferenceQuery.from_terms(
        k=5,
        radius=0.05,
        lam=0.5,
        keywords=[["term0001"], ["term0002"], ["term0003"]],
        feature_sets=feature_sets,
        variant=Variant.INFLUENCE,
    )
    reference = None
    for algorithm in ("stps", "iss"):
        processor3.clear_buffers()
        t0 = time.perf_counter()
        result = processor3.query(q3, algorithm=algorithm)
        wall = (time.perf_counter() - t0) * 1e3
        note = (
            f"{result.stats.combinations} combinations"
            if algorithm == "stps"
            else f"{result.stats.objects_scored} exact object evaluations"
        )
        print(f"   {algorithm.upper():4s}: {wall:8.1f}ms ({note})")
        if reference is None:
            reference = result.scores
        else:
            assert all(
                abs(a - b) < 1e-9 for a, b in zip(result.scores, reference)
            ), "algorithms disagree!"
    print("   identical top-k:", [round(s, 4) for s in reference])


if __name__ == "__main__":
    main()
