#!/usr/bin/env python3
"""Advanced features tour: streaming results.

Demonstrates an extension this reproduction adds on top of the paper
(see DESIGN.md, Section 7): **incremental streaming** — page through
results without re-running the query.

Run:  python examples/advanced_features.py
"""

import itertools

from repro import PreferenceQuery, QueryProcessor
from repro.data import synthetic_feature_sets, synthetic_objects


def main() -> None:
    objects = synthetic_objects(5000, seed=21)
    feature_sets = synthetic_feature_sets(2, 5000, vocabulary=64, seed=22)

    # ------------------------------------------------------------------
    # streaming: take 3 results, then 3 more, from one execution
    # ------------------------------------------------------------------
    processor = QueryProcessor.build(objects, feature_sets)
    query = PreferenceQuery.from_terms(
        k=3,
        radius=0.05,
        lam=0.5,
        keywords=[["term0001", "term0005"], ["term0002", "term0009"]],
        feature_sets=feature_sets,
    )
    stream = processor.stream(query)
    first_page = list(itertools.islice(stream, 3))
    second_page = list(itertools.islice(stream, 3))
    print("streaming: first page ", [(i.oid, round(i.score, 3)) for i in first_page])
    print("streaming: second page", [(i.oid, round(i.score, 3)) for i in second_page])


if __name__ == "__main__":
    main()
