"""Paged storage substrate: pages, page files, node cache, I/O stats."""

from repro.storage.node_cache import DEFAULT_BUFFER_PAGES, NodeCache
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.pagefile import DiskPageFile, MemoryPageFile, PageFile
from repro.storage.stats import DEFAULT_PAGE_READ_COST_S, IOStats

__all__ = [
    "DEFAULT_BUFFER_PAGES",
    "DEFAULT_PAGE_READ_COST_S",
    "DEFAULT_PAGE_SIZE",
    "DiskPageFile",
    "IOStats",
    "MemoryPageFile",
    "NodeCache",
    "Page",
    "PageFile",
]
