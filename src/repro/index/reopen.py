"""Reopen persisted trees from their storage, without rebuilding.

Every tree writes a metadata page (page 0, see
:meth:`repro.index.rtree_base.RTreeBase._write_meta`) carrying its
``kind`` plus the constructor parameters needed to re-instantiate it.
:func:`open_tree` reads that page from any :class:`PageFile` — disk,
memory, or a :class:`~repro.storage.shm.SharedMemoryPageFile` attached
from another process — and returns a ready-to-query tree with
``root_id``/``height``/``count`` restored and nothing rebuilt.

This is what makes shard storage cheaply transferable: a worker process
receives only a segment name, attaches, and reopens.
"""

from __future__ import annotations

from repro.errors import IndexError_, StorageError
from repro.index.ir2 import IR2Tree
from repro.index.irtree import IRTree
from repro.index.object_rtree import ObjectRTree
from repro.index.rtree_base import META_PAGE_ID, RTreeBase
from repro.index.srt import SRTIndex
from repro.storage.node_cache import DEFAULT_BUFFER_PAGES
from repro.storage.pagefile import PageFile
from repro.text.signature import SignatureScheme

#: ``metadata()["kind"]`` -> tree class, for every persisted tree type.
TREE_KINDS = {
    "object": ObjectRTree,
    "srt": SRTIndex,
    "ir2": IR2Tree,
    "irtree": IRTree,
}


def open_tree(
    pagefile: PageFile,
    buffer_pages: int = DEFAULT_BUFFER_PAGES,
) -> RTreeBase:
    """Open the tree persisted in ``pagefile`` (see module docstring)."""
    meta = RTreeBase.read_meta(pagefile)
    kind = meta.get("kind")
    if kind not in TREE_KINDS:
        raise IndexError_(
            f"unknown tree kind {kind!r}; expected one of "
            f"{sorted(TREE_KINDS)}"
        )
    if meta.get("page_size") != pagefile.page_size:
        raise StorageError(
            f"page size mismatch: meta says {meta.get('page_size')}, "
            f"page file uses {pagefile.page_size}"
        )
    if kind == "object":
        tree: RTreeBase = ObjectRTree(pagefile, buffer_pages)
    elif kind == "ir2":
        tree = IR2Tree(
            meta["vocab_size"],
            pagefile,
            buffer_pages,
            SignatureScheme(meta["signature_bits"], meta["bits_per_term"]),
        )
    else:  # "srt" / "irtree"
        tree = TREE_KINDS[kind](meta["vocab_size"], pagefile, buffer_pages)
    tree.root_id = meta["root"]
    tree.height = meta["height"]
    tree.count = meta["count"]
    tree._meta_page_id = META_PAGE_ID
    return tree
