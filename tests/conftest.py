"""Shared fixtures: small deterministic datasets and built processors.

Also home of the hypothesis reproducibility plumbing: the ``repro-live``
settings profile is *derandomized* by default (examples derive from the
test function, not a per-run RNG), so stateful suites behave identically
in CI; hypothesis' own ``--hypothesis-seed N`` option switches the
profile to seeded random exploration for local bug hunting (the plugin
applies the seed, this conftest just stops derandomizing, which would
override it).  Suites opt in by loading the profile in their own
conftest; the active seed is printed alongside any hypothesis failure.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

from repro.core.combinations import CombinationIterator
from repro.core.processor import QueryProcessor
from repro.core.results import QueryStats
from repro.core.stps import _VARIANTS
from repro.index.object_rtree import ObjectRTree
from repro.index.rtree_base import RTreeBase
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.obs.tracing import NULL_RECORDER
from repro.text.vocabulary import Vocabulary

VOCAB_SIZE = 32

#: Environment fallback for the seed (CLI wins); lets wrapper scripts
#: seed hypothesis suites without threading pytest options through.
HYPOTHESIS_SEED_ENV = "REPRO_HYPOTHESIS_SEED"


def hypothesis_seed() -> str | None:
    """The requested hypothesis seed, or None (derandomized profile).

    Read from ``--hypothesis-seed`` on the command line (the option is
    hypothesis' own — its plugin applies the seed; this repo only stops
    derandomizing so the seed can take effect) or from
    ``REPRO_HYPOTHESIS_SEED``.  Parsed from ``sys.argv`` because the
    profile must be registered at conftest *import* time — directory
    conftests load before ``pytest_configure`` sees parsed options.
    """
    for i, arg in enumerate(sys.argv):
        if arg == "--hypothesis-seed" and i + 1 < len(sys.argv):
            return sys.argv[i + 1]
        if arg.startswith("--hypothesis-seed="):
            return arg.split("=", 1)[1]
    return os.environ.get(HYPOTHESIS_SEED_ENV) or None


def _register_live_profile() -> None:
    try:
        from hypothesis import HealthCheck, settings
    except ImportError:  # pragma: no cover - hypothesis is a test dep
        return
    settings.register_profile(
        "repro-live",
        derandomize=hypothesis_seed() is None,
        deadline=None,
        max_examples=25,
        print_blob=True,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
        ],
    )


_register_live_profile()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item: pytest.Item, call: pytest.CallInfo):
    """Attach the reproduction recipe to failing hypothesis tests."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    function = getattr(item, "function", None)
    if function is None or not hasattr(function, "hypothesis"):
        return
    seed = hypothesis_seed()
    if seed is not None:
        note = (
            f"this run used --hypothesis-seed={seed}; pass the same value "
            "to reproduce the exploration order"
        )
    else:
        note = (
            "derandomized profile (no per-run seed): re-running reproduces "
            "this failure as-is; use --hypothesis-seed=N to explore further"
        )
    report.sections.append(("hypothesis seed", note))


def make_feature_objects(
    n: int, seed: int, vocab_size: int = VOCAB_SIZE, max_kw: int = 3
) -> list[FeatureObject]:
    """Deterministic random feature objects in the unit square."""
    rng = random.Random(seed)
    return [
        FeatureObject(
            i,
            rng.random(),
            rng.random(),
            round(rng.random(), 3),
            frozenset(rng.sample(range(vocab_size), rng.randint(1, max_kw))),
        )
        for i in range(n)
    ]


def make_data_objects(n: int, seed: int) -> list[DataObject]:
    """Deterministic random data objects in the unit square."""
    rng = random.Random(seed)
    return [DataObject(i, rng.random(), rng.random()) for i in range(n)]


def reopen_tree(pagefile):
    """The object or SRT tree persisted in ``pagefile``, opened cold from
    its meta page (root, height and count restored, nothing rebuilt)."""
    meta = RTreeBase.read_meta(pagefile)
    if meta["kind"] == "object":
        tree = ObjectRTree(pagefile)
    else:
        tree = SRTIndex(meta["vocab_size"], pagefile)
    tree.root_id, tree.height, tree.count = (
        meta["root"], meta["height"], meta["count"]
    )
    return tree


def random_mask(rng: random.Random, terms: int = 3) -> int:
    """A random query-keyword mask of ``terms`` distinct terms."""
    mask = 0
    for t in rng.sample(range(VOCAB_SIZE), terms):
        mask |= 1 << t
    return mask


def combination_iterator(trees, query) -> CombinationIterator:
    """Algorithm 4's iterator joining by ``query.variant``'s object, as
    STPS builds it.  The join reads no object tree, so none is given."""
    stats = QueryStats()
    variant = _VARIANTS[query.variant](
        None, trees, query, stats, None, NULL_RECORDER
    )
    return CombinationIterator(trees, query, variant, stats=stats)


@pytest.fixture(scope="session")
def vocab() -> Vocabulary:
    return Vocabulary(f"kw{i}" for i in range(VOCAB_SIZE))


@pytest.fixture(scope="session")
def objects() -> ObjectDataset:
    return ObjectDataset(make_data_objects(250, seed=10))


@pytest.fixture(scope="session")
def feature_sets(vocab) -> list[FeatureDataset]:
    return [
        FeatureDataset(make_feature_objects(150, seed=11), vocab, "A"),
        FeatureDataset(make_feature_objects(150, seed=12), vocab, "B"),
    ]


@pytest.fixture(scope="session")
def srt_processor(objects, feature_sets) -> QueryProcessor:
    return QueryProcessor.build(objects, feature_sets, index="srt")


@pytest.fixture(scope="session")
def ir2_processor(objects, feature_sets) -> QueryProcessor:
    return QueryProcessor.build(objects, feature_sets, index="ir2")
