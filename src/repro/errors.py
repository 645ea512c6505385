"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Invalid geometric input (mismatched dimensions, degenerate shapes)."""


class StorageError(ReproError):
    """Problem in the paged storage layer."""


class PageNotFoundError(StorageError):
    """A page id was requested that does not exist in the page file."""

    def __init__(self, page_id: int) -> None:
        super().__init__(f"page {page_id} does not exist")
        self.page_id = page_id


class PageCorruptedError(StorageError):
    """A page failed checksum or structural validation when read back."""

    def __init__(self, page_id: int, reason: str) -> None:
        super().__init__(f"page {page_id} is corrupted: {reason}")
        self.page_id = page_id
        self.reason = reason


class PageOverflowError(StorageError):
    """Serialized payload does not fit into the fixed page size."""

    def __init__(self, needed: int, capacity: int) -> None:
        super().__init__(
            f"payload of {needed} bytes exceeds page capacity of {capacity} bytes"
        )
        self.needed = needed
        self.capacity = capacity


class IndexError_(ReproError):
    """Structural problem inside a spatial index."""


class VocabularyError(ReproError):
    """Unknown term or inconsistent vocabulary use."""


class QueryError(ReproError):
    """Malformed query (bad k, radius, lambda, or keyword sets)."""


class DatasetError(ReproError):
    """Malformed or inconsistent dataset input."""


class ShardError(ReproError):
    """Failure inside the sharded engine (partitioning or a shard query).

    Wraps unexpected per-shard exceptions with the shard id so a
    batch can report *which* shard of *which* query failed; library
    errors (:class:`QueryError` etc.) propagate unwrapped.
    """

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(f"shard {shard_id}: {message}")
        self.shard_id = shard_id
        self.message = message
