"""Bulk-loaded trees, pinned page for page.

sha256 over every page payload, in page-id order, of each bulk build on
one fixed synthetic world (2 000 objects, two sets of 1 000 features) at
vocabulary 64 and 256.  The digests were captured at commit 4d3e55d, when
every key was one scalar ``HilbertCurve.encode`` call and the entries
were ordered by ``list.sort``; the vectorized keys and the stable argsort
must pack the same pages.  Any change to a key, its quantization or the
packing order moves a digest here.
"""

import hashlib

import pytest

from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.index.ir2 import IR2Tree
from repro.index.object_rtree import ObjectRTree
from repro.index.srt import SRTIndex

OBJECT_PAGES = {
    "hilbert": "b6dd007e4d4d84d2b02aa92cf75f6fa59561cca1941ac26cb06e82b349e4c3ce",
    "str": "3ae99af968c6e14a137cc8b9530405cb532194ba33c646a8c60c227f844514b9",
}

FEATURE_PAGES = {
    (SRTIndex, 64): "4aff213cc09f4040df3cce873b69b7fb2acb91f5f36a502308f979d5ce8cbc63",
    (IR2Tree, 64): "59704fa815879dfce6206cc2f72913e1321d52e867713eddb3b36121b9ee0f33",
    (SRTIndex, 256): "922aa4c7d44a6ca30d191142f6e45e521550fe16fcfd84d4bf66becc1ed835f7",
    (IR2Tree, 256): "828e29732f285f73dc749c5bfbf1ecfb787f1c59c3ba005e125d50790da6be28",
}


def page_digest(*trees) -> str:
    h = hashlib.sha256()
    for tree in trees:
        pagefile = tree.pagefile
        for page_id in range(pagefile.page_count):
            h.update(pagefile.read(page_id).payload)
    return h.hexdigest()


@pytest.mark.parametrize("method", sorted(OBJECT_PAGES))
def test_object_tree_pages(method):
    tree = ObjectRTree.build(synthetic_objects(2000, seed=1), method=method)
    assert page_digest(tree) == OBJECT_PAGES[method]


@pytest.mark.parametrize(
    "tree_cls,vocab",
    sorted(FEATURE_PAGES, key=lambda key: (key[1], key[0].__name__)),
    ids=lambda value: getattr(value, "__name__", value),
)
def test_feature_tree_pages(tree_cls, vocab):
    feature_sets = synthetic_feature_sets(2, 1000, vocab, seed=2)
    trees = [tree_cls.build(fs) for fs in feature_sets]
    assert page_digest(*trees) == FEATURE_PAGES[tree_cls, vocab]
