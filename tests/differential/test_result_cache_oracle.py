"""Differential oracle for the result cache under live mutation.

A seeded stream of all six mutation kinds is interleaved with reads
served through a cache-enabled :class:`QueryService` over a
:class:`LiveDataset`.  Every answer the cache decides to serve
(``decision.cached``) is compared — same ids, same order, scores at
``1e-9`` — with a fresh ``processor.query`` by the *other* algorithm, so
a delta wrongly judged harmless by ``repro.core.coherence`` shows up as
a mismatch.  The run must also contain hits that were re-validated by
replaying deltas: with whole-cache invalidation there are none.

A uniform stream rarely lands on the one feature a reported object
scores from, so one write in four is *aimed* at the answer served last:
a feature in range of a reported object leaves or loses its score, a
strong relevant feature appears beside some object, or a new object
lands on a reported one.
"""

from __future__ import annotations

import random

import pytest

from repro.core.executor import QueryExecutor
from repro.core.query import PreferenceQuery, Variant
from repro.live import LiveDataset
from repro.model.objects import DataObject, FeatureObject
from repro.obs import metrics as _metrics
from repro.serve.service import QueryService, ServeConfig

from tests.live.conftest import LIVE_VOCAB_SIZE, MutationStream, live_world

SCORE_TOL = 1e-9
#: (objects, features per set, steps).  Range queries are cheap, so they
#: get the dense world in which the k-th score clears R3's ceiling; the
#: per-object variants cost ``|F|^c`` at worst and get a sparse one.
SHAPES = {
    Variant.RANGE: (120, 200, 400),
    Variant.INFLUENCE: (50, 24, 150),
    Variant.NEAREST: (50, 24, 150),
}
OTHER = {"stps": "stds", "stds": "stps"}


def _pool(c: int, variant: Variant, rng: random.Random):
    """(query, algorithm) keys: narrow masks so most writes are invisible,
    and both a small and a generous k (the zero-score tail included)."""
    keys = []
    for i in range(6):
        masks = tuple(
            sum(1 << t for t in rng.sample(range(LIVE_VOCAB_SIZE), 2))
            for _ in range(c)
        )
        query = PreferenceQuery(
            (1, 3, 12)[i % 3], (0.1, 0.25)[i % 2], (0.5, 0.2)[i % 2], masks,
            variant,
        )
        keys.append((query, ("stps", "stds")[i % 2]))
    return keys


def _aimed_write(live, rng: random.Random, query, items, fresh_id: int):
    """One mutation placed where it can change ``items``."""
    item = rng.choice(items)
    set_id = rng.randrange(query.c)
    kind = rng.randrange(3)
    if kind == 0:
        live.insert_object(DataObject(fresh_id, item.x, item.y))
    elif kind == 1:
        spot = rng.choice(live.objects_snapshot().objects)
        keywords = frozenset(
            t for t in range(LIVE_VOCAB_SIZE)
            if query.keyword_masks[set_id] >> t & 1
        )
        live.insert_feature(
            set_id,
            FeatureObject(
                fresh_id, spot.x, spot.y, round(rng.random(), 3), keywords
            ),
        )
    else:
        near = [
            f for f in live.feature_snapshots()[set_id]
            if (f.x - item.x) ** 2 + (f.y - item.y) ** 2 <= query.radius ** 2
        ]
        if not near:
            return
        fid = rng.choice(near).fid
        if rng.random() < 0.5 and live.n_features(set_id) > 8:
            live.delete_feature(set_id, fid)
        else:
            live.rescore_feature(set_id, fid, 0.0)


def _same(got, fresh) -> bool:
    """Same ids in the same order, scores at ``SCORE_TOL``."""
    return [i.oid for i in got] == [i.oid for i in fresh] and [
        i.score for i in got
    ] == pytest.approx([i.score for i in fresh], abs=SCORE_TOL)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("c", (2, 3))
def test_every_cached_answer_matches_a_fresh_query(c, variant):
    n_objects, n_features, steps = SHAPES[variant]
    objects, feature_sets = live_world(
        n_objects=n_objects, n_features=n_features, seed=31 + c, n_sets=c
    )
    live = LiveDataset.build(
        objects, feature_sets, page_size=512, buffer_pages=32
    )
    rng = random.Random(7 * c + len(variant.value))
    stream = MutationStream(live, seed=rng.randrange(1 << 30))
    keys = _pool(c, variant, rng)
    served = mismatches = 0
    last = None
    with _metrics.scoped_registry(), QueryExecutor(
        live.processor, max_workers=1
    ) as executor:
        service = QueryService(executor, ServeConfig(), live=live)
        for step in range(steps):
            if rng.random() < 0.3:
                if last and last[1] and rng.random() < 0.25:
                    _aimed_write(live, rng, *last, 6_000_000 + step)
                else:
                    stream.step()
                continue
            index = rng.randrange(len(keys))
            query, algorithm = keys[index]
            decision = service.handle("t", query, algorithm=algorithm)
            assert decision.status == 200
            last = (query, decision.result.items)
            fresh = live.processor.query(
                query, algorithm=OTHER[algorithm]
            ).items
            if decision.cached:
                served += 1
                mismatches += not _same(decision.result.items, fresh)
        revalidated = service.cache.revalidated
        service.close()
    assert set(stream.counts) == {
        "insert_feature", "delete_feature", "move_feature",
        "rescore_feature", "insert_object", "delete_object",
    }
    assert mismatches == 0, f"{mismatches} of {served} cached answers wrong"
    assert revalidated > 0
