"""Page files: allocation, read and write of fixed-size pages.

Two implementations share one interface:

* :class:`MemoryPageFile` — keeps encoded page images in RAM but still
  charges every read/write to :class:`~repro.storage.stats.IOStats`.  This
  is what the benchmarks use: it models the paper's disk-resident indexes
  deterministically without real-disk noise.
* :class:`DiskPageFile` — the same layout persisted to an actual file, so
  indexes survive process restarts and the storage format is real.

Both encode/decode through :class:`~repro.storage.page.Page`, so checksums
are verified on every read path.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod

from repro.errors import PageNotFoundError, StorageError
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.stats import IOStats


class PageFile(ABC):
    """Abstract store of fixed-size pages with I/O accounting."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < 64:
            raise StorageError(f"page size {page_size} is too small")
        self.page_size = page_size
        self.stats = IOStats()

    @abstractmethod
    def allocate(self) -> int:
        """Reserve a new page id."""

    @abstractmethod
    def read(self, page_id: int) -> Page:
        """Fetch a page (counts one physical read)."""

    @abstractmethod
    def write(self, page: Page) -> None:
        """Persist a page image (counts one physical write)."""

    @property
    @abstractmethod
    def page_count(self) -> int:
        """Number of allocated pages."""

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""


class MemoryPageFile(PageFile):
    """In-memory page store that still encodes/decodes page images."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._pages: dict[int, bytes] = {}
        self._next_id = 0

    def allocate(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = b""
        return page_id

    def read(self, page_id: int) -> Page:
        raw = self._pages.get(page_id)
        if raw is None:
            raise PageNotFoundError(page_id)
        self.stats.record_read()
        return Page.decode(page_id, raw, self.page_size)

    def write(self, page: Page) -> None:
        if page.page_id not in self._pages:
            raise PageNotFoundError(page.page_id)
        self.stats.record_write()
        self._pages[page.page_id] = page.encode(self.page_size)

    @property
    def page_count(self) -> int:
        return self._next_id

    def corrupt(self, page_id: int, offset: int = 16) -> None:
        """Flip one payload byte of a stored page (test/fault injection)."""
        raw = self._pages.get(page_id)
        if raw is None:
            raise PageNotFoundError(page_id)
        if offset >= len(raw):
            raise StorageError(f"offset {offset} beyond page size")
        mutated = bytearray(raw)
        mutated[offset] ^= 0xFF
        self._pages[page_id] = bytes(mutated)


class DiskPageFile(PageFile):
    """Page store backed by a real file of back-to-back page images.

    One file descriptor is opened at construction and reused for the
    whole lifetime; reads go through positioned ``os.pread`` (no shared
    seek cursor, so concurrent readers never race).  Writes use
    positioned ``os.pwrite`` under a lock that also guards allocation.
    """

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self.path = path
        exists = os.path.exists(path)
        self._fh = open(path, "r+b" if exists else "w+b", buffering=0)
        self._fd = self._fh.fileno()
        self._write_lock = threading.Lock()
        if exists:
            size = os.fstat(self._fd).st_size
            if size % page_size:
                self._fh.close()
                raise StorageError(
                    f"{path}: size {size} is not a multiple of page size {page_size}"
                )
            self._next_id = size // page_size
        else:
            self._next_id = 0

    def allocate(self) -> int:
        with self._write_lock:
            page_id = self._next_id
            self._next_id += 1
            # Extend the file with an empty (valid) page image so reads of
            # a freshly allocated page do not fail structurally.
            os.pwrite(
                self._fd,
                Page(page_id, b"").encode(self.page_size),
                page_id * self.page_size,
            )
        return page_id

    def read(self, page_id: int) -> Page:
        if not 0 <= page_id < self._next_id:
            raise PageNotFoundError(page_id)
        self.stats.record_read()
        raw = os.pread(self._fd, self.page_size, page_id * self.page_size)
        return Page.decode(page_id, raw, self.page_size)

    def write(self, page: Page) -> None:
        if not 0 <= page.page_id < self._next_id:
            raise PageNotFoundError(page.page_id)
        self.stats.record_write()
        with self._write_lock:
            os.pwrite(
                self._fd,
                page.encode(self.page_size),
                page.page_id * self.page_size,
            )

    @property
    def page_count(self) -> int:
        return self._next_id

    def flush(self) -> None:
        """Push written pages to stable storage."""
        os.fsync(self._fd)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "DiskPageFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
