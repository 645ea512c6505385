"""Incremental-vs-rebuild differential oracle (ISSUE 8 headline).

An engine mutated in place must answer *identically* — ids and scores at
1e-9 — to an index rebuilt from scratch over the mutated datasets, for
every algorithm/variant combination the engine supports.  The test
drives ≥200 mixed mutations through :class:`tests.live.conftest.MutationStream`
(insert/delete/move/rescore features, insert/delete objects) into a
:class:`LiveDataset` and compares at periodic checkpoints against the
rebuild and a brute-force belt on top of it, so a divergence is caught
near the mutation that caused it.
"""

from __future__ import annotations

import random

from repro.core.bruteforce import brute_force
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.live import LiveDataset

from tests.conftest import random_mask
from tests.live.conftest import LIVE_VOCAB_SIZE, MutationStream, live_world

SCORE_TOL = 1e-9
TOTAL_MUTATIONS = 220
CHECKPOINT_EVERY = 55
QUERY_RADIUS = 0.18

#: (algorithm, variant) combinations: the paper's four query flavours.
FULL_BATTERY = (
    ("stps", Variant.RANGE),
    ("stds", Variant.RANGE),
    ("stps", Variant.INFLUENCE),
    ("stps", Variant.NEAREST),
)

BUILD_KWARGS = {"page_size": 1024, "buffer_pages": 64}


def _queries(seed: int, n: int = 2) -> list[PreferenceQuery]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        masks = tuple(
            random_mask(rng, terms=3) % (1 << LIVE_VOCAB_SIZE) or 1
            for _ in range(2)
        )
        out.append(
            PreferenceQuery(
                rng.choice((3, 7)), QUERY_RADIUS, 0.5, masks, Variant.RANGE
            )
        )
    return out


def _assert_matches(expected, got, label: str) -> None:
    exp = [(i.oid, i.score) for i in expected]
    act = [(i.oid, i.score) for i in got]
    assert len(act) == len(exp), f"{label}: {len(act)} items != {len(exp)}"
    for rank, ((eo, es), (ao, asc)) in enumerate(zip(exp, act)):
        assert ao == eo, f"{label}: rank {rank} oid {ao} != {eo}"
        assert abs(asc - es) <= SCORE_TOL, (
            f"{label}: rank {rank} score {asc} != {es}"
        )


def _check_against_rebuild(live, battery, brute: bool = False) -> None:
    """The oracle: mutated engine == rebuilt-from-scratch == brute force."""
    objects = live.objects_snapshot()
    feature_sets = live.feature_snapshots()
    rebuilt = QueryProcessor.build(objects, feature_sets, **BUILD_KWARGS)
    for query in _queries(seed=7):
        for algorithm, variant in battery:
            q = query.with_variant(variant)
            label = f"{algorithm}/{variant.value}"
            expected = rebuilt.query(q, algorithm=algorithm).items
            got = live.query(q, algorithm=algorithm).items
            _assert_matches(expected, got, label)
            if brute:
                oracle = brute_force(objects, feature_sets, q).items
                _assert_matches(oracle, got, f"{label} vs brute")


def _drive(live, stream: MutationStream, battery, brute: bool = False) -> int:
    total = 0
    while total < TOTAL_MUTATIONS:
        total = stream.run(CHECKPOINT_EVERY)
        live.check_consistency()
        _check_against_rebuild(live, battery, brute=brute)
    return total


def test_single_node_matches_rebuild_and_brute_force():
    objects, feature_sets = live_world()
    live = LiveDataset.build(objects, feature_sets, **BUILD_KWARGS)
    stream = MutationStream(live, seed=99)
    total = _drive(live, stream, FULL_BATTERY, brute=True)
    assert total >= 200
    # All six ops actually occurred — the stream exercised the full API.
    assert set(stream.counts) == {
        "insert_feature", "delete_feature", "move_feature",
        "rescore_feature", "insert_object", "delete_object",
    }
