"""Tests for incremental result streaming."""

import itertools

import pytest

from repro.core.bruteforce import brute_force
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery, Variant
from repro.core.stps import stps_stream
from repro.errors import QueryError
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.text.vocabulary import Vocabulary


def _q(variant=Variant.RANGE, k=5, radius=0.08):
    return PreferenceQuery(
        k=k,
        radius=radius,
        lam=0.5,
        keyword_masks=(0b1110, 0b0111),
        variant=variant,
    )


def _ranked(items):
    return [(i.oid, round(i.score, 9)) for i in items]


class TestStreaming:
    @pytest.mark.parametrize("variant", [Variant.RANGE, Variant.NEAREST])
    def test_prefix_matches_query(self, srt_processor, variant):
        query = _q(variant)
        streamed = list(
            itertools.islice(srt_processor.stream(query), query.k)
        )
        batch = srt_processor.query(query)
        assert _ranked(streamed) == _ranked(batch.items)

    @pytest.mark.parametrize("variant", [Variant.RANGE, Variant.NEAREST])
    def test_ties_stream_in_query_order(self, variant):
        """Two sets with two equal-score features each, at (0.8, 0.8) and
        (0.2, 0.2): every combination ties, so retrieval order is not
        rank order — the stream releases a score level by ascending oid
        once the next combination scores lower, as ``query()`` ranks."""
        vocab = Vocabulary(["kw"])
        sets = [
            FeatureDataset(
                [
                    FeatureObject(10 * i, 0.8, 0.8, 0.5, frozenset({0})),
                    FeatureObject(10 * i + 1, 0.2, 0.2, 0.5, frozenset({0})),
                ],
                vocab,
                f"set{i}",
            )
            for i in range(2)
        ]
        objects = ObjectDataset(
            [DataObject(1, 0.8, 0.8), DataObject(2, 0.2, 0.2),
             DataObject(3, 0.5, 0.5)]
        )
        processor = QueryProcessor.build(objects, sets)
        query = PreferenceQuery(2, 0.1, 0.5, (1, 1), variant)
        expected = _ranked(processor.query(query).items)
        assert [oid for oid, _ in expected] == [1, 2]
        streamed = list(processor.stream(query))
        assert _ranked(streamed[:2]) == expected
        assert sorted(i.oid for i in streamed) == [1, 2, 3]

    @pytest.mark.parametrize("variant", [Variant.RANGE, Variant.NEAREST])
    def test_full_stream_matches_brute_force(
        self, srt_processor, objects, feature_sets, variant
    ):
        query = _q(variant)
        streamed = list(stps_stream(
            srt_processor.object_tree, srt_processor.feature_trees, query
        ))
        full = brute_force(
            objects, feature_sets, query.with_variant(variant)
        )
        # brute_force truncates at k; re-run with k = |O| for the full list
        query_all = PreferenceQuery(
            k=len(objects),
            radius=query.radius,
            lam=query.lam,
            keyword_masks=query.keyword_masks,
            variant=variant,
        )
        want = brute_force(objects, feature_sets, query_all)
        assert len(streamed) == len(objects)
        assert [i.score for i in streamed] == pytest.approx(
            want.scores, abs=1e-9
        )

    def test_scores_non_increasing(self, srt_processor):
        scores = [
            item.score
            for item in itertools.islice(srt_processor.stream(_q()), 40)
        ]
        assert scores == sorted(scores, reverse=True)

    def test_no_duplicates_across_whole_stream(self, srt_processor, objects):
        oids = [item.oid for item in srt_processor.stream(_q())]
        assert len(oids) == len(set(oids)) == len(objects)

    def test_influence_rejected(self, srt_processor):
        with pytest.raises(QueryError):
            next(iter(srt_processor.stream(_q(Variant.INFLUENCE))))

    def test_lazy_io(self, srt_processor, objects):
        """Consuming one result must not scan the whole object tree."""
        srt_processor.clear_buffers()
        srt_processor.reset_stats()
        stream = srt_processor.stream(_q(radius=0.2))
        next(stream)
        logical = (
            srt_processor.object_tree.stats.logical_reads
            + sum(t.stats.logical_reads for t in srt_processor.feature_trees)
        )
        # A full scan alone would need every leaf; demand far fewer.
        total_pages = srt_processor.object_tree.pagefile.page_count + sum(
            t.pagefile.page_count for t in srt_processor.feature_trees
        )
        assert logical < total_pages
