"""Live-update suite: shared world builders and the mutation stream.

Loads the ``repro-live`` hypothesis profile registered by the top-level
conftest (derandomized unless ``--hypothesis-seed`` was given), and
provides the deterministic :class:`MutationStream` the incremental
oracle and unit tests drive their engines with.
"""

from __future__ import annotations

import random

from hypothesis import settings

from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.text.vocabulary import Vocabulary

from tests.conftest import make_data_objects, make_feature_objects

settings.load_profile("repro-live")

#: Small vocabulary so query masks overlap feature keywords often.
LIVE_VOCAB_SIZE = 16


def live_world(
    n_objects: int = 80,
    n_features: int = 60,
    seed: int = 20,
    n_sets: int = 2,
) -> tuple[ObjectDataset, list[FeatureDataset]]:
    """A fresh small world (two feature sets unless told) for live tests."""
    vocab = Vocabulary(f"kw{i}" for i in range(LIVE_VOCAB_SIZE))
    objects = ObjectDataset(make_data_objects(n_objects, seed=seed))
    feature_sets = [
        FeatureDataset(
            [
                FeatureObject(
                    1000 * j + f.fid, f.x, f.y, f.score, f.keywords, f.name
                )
                for f in make_feature_objects(
                    n_features, seed=seed + 1 + j, vocab_size=LIVE_VOCAB_SIZE
                )
            ],
            vocab,
            "ABCDEFGH"[j],
        )
        for j in range(n_sets)
    ]
    return objects, feature_sets


class MutationStream:
    """Deterministic mixed-mutation generator over a live dataset.

    Each :meth:`step` draws one of the six mutation ops (weighted toward
    moves) and applies it through the live API.  New positions are
    sampled inside the *original object bounding box*.  A quarter of the
    moves mirror the feature to the opposite corner of the domain, so
    some moves travel across the whole world.

    ``counts`` tallies applied ops; ``self.rng`` is private to the
    stream, so two streams with equal seeds over equal worlds generate
    identical mutation sequences regardless of the engine underneath.
    """

    #: Keep worlds from draining: deletes are skipped below these floors.
    MIN_OBJECTS = 20
    MIN_FEATURES = 8

    def __init__(self, live, seed: int) -> None:
        self.live = live
        self.rng = random.Random(seed)
        self.counts: dict[str, int] = {}
        self._next_fid = 5_000_000
        self._next_oid = 5_000_000
        self._n_sets = len(live.feature_snapshots())
        objects = live.objects_snapshot()
        xs = [o.x for o in objects]
        ys = [o.y for o in objects]
        self._domain = (min(xs), min(ys), max(xs), max(ys))

    def _point(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self._domain
        return (self.rng.uniform(x0, x1), self.rng.uniform(y0, y1))

    def _mirror(self, x: float, y: float) -> tuple[float, float]:
        """The point reflected through the domain center (far corner)."""
        x0, y0, x1, y1 = self._domain
        return (x0 + x1 - x, y0 + y1 - y)

    def _keywords(self) -> frozenset[int]:
        return frozenset(
            self.rng.sample(range(LIVE_VOCAB_SIZE), self.rng.randint(1, 3))
        )

    def step(self) -> str:
        """Apply one mutation; returns the op name."""
        live = self.live
        op = self.rng.choices(
            (
                "insert_feature",
                "delete_feature",
                "move_feature",
                "rescore_feature",
                "insert_object",
                "delete_object",
            ),
            weights=(18, 12, 30, 12, 16, 12),
        )[0]
        set_id = self.rng.randrange(self._n_sets)
        if op == "insert_feature":
            x, y = self._point()
            self._next_fid += 1
            live.insert_feature(
                set_id,
                FeatureObject(
                    self._next_fid, x, y,
                    round(self.rng.random(), 6), self._keywords(),
                ),
            )
        elif op == "delete_feature":
            fids = live.feature_ids(set_id)
            if len(fids) <= self.MIN_FEATURES:
                return self.step()
            live.delete_feature(set_id, self.rng.choice(fids))
        elif op == "move_feature":
            fids = live.feature_ids(set_id)
            fid = self.rng.choice(fids)
            if self.rng.random() < 0.25:
                old = live.get_feature(set_id, fid)
                x, y = self._mirror(old.x, old.y)
            else:
                x, y = self._point()
            live.move_feature(set_id, fid, x, y)
        elif op == "rescore_feature":
            fids = live.feature_ids(set_id)
            live.rescore_feature(
                set_id, self.rng.choice(fids), round(self.rng.random(), 6)
            )
        elif op == "insert_object":
            x, y = self._point()
            self._next_oid += 1
            live.insert_object(DataObject(self._next_oid, x, y))
        else:  # delete_object
            oids = live.object_ids()
            if len(oids) <= self.MIN_OBJECTS:
                return self.step()
            live.delete_object(self.rng.choice(oids))
        self.counts[op] = self.counts.get(op, 0) + 1
        return op

    def run(self, n: int) -> int:
        """Apply ``n`` mutations; returns the total applied so far."""
        for _ in range(n):
            self.step()
        return sum(self.counts.values())
