"""Shared-memory page file: zero-copy page images across processes.

A :class:`SharedMemoryPageFile` keeps a *frozen* set of encoded page
images in one ``multiprocessing.shared_memory`` block with a fixed-slot
layout, so worker processes attach to an index's storage by name —
no pickling, no per-page copies, no rebuild:

::

    +--------- header (64 bytes) ---------+------ slot 0 ------+-- ...
    | magic | version | page_size | count |  page 0 image      | page 1
    +-------------------------------------+--------------------+-- ...

Slot ``i`` starts at ``HEADER_BYTES + i * page_size`` and holds exactly
the bytes :meth:`repro.storage.page.Page.encode` produces — length
prefix, CRC32, payload, zero padding — so every cross-process read
re-verifies the per-page checksum on decode, exactly like the disk and
memory page files.

The file is **read-only by protocol**: it is created by freezing an
already-built index (:meth:`SharedMemoryPageFile.freeze`) and attached
read-only by workers (:meth:`SharedMemoryPageFile.attach`);
``allocate``/``write`` raise.  POSIX shared memory has no hardware
read-only mapping through this API, so immutability is enforced at the
page-file layer and guarded by the checksums underneath.

Lifecycle: exactly one owner (the freezing process) unlinks the segment
on :meth:`close`; attaching processes merely unmap.  Python >= 3.8's
``resource_tracker`` would otherwise *unlink the owner's segment* when
an attaching process exits, so :meth:`attach` suppresses tracker
registration for the attaching process — the documented workaround
until ``track=False`` (3.13) is available everywhere.
"""

from __future__ import annotations

import contextlib
import struct
import threading
from multiprocessing import resource_tracker, shared_memory

from repro.errors import PageNotFoundError, StorageError
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.pagefile import MemoryPageFile, PageFile

#: Identifies (and versions) the header layout; bump on layout changes.
MAGIC = b"RPRSHM01"

#: magic(8s) + page_size(u32) + page_count(u32), zero-padded to 64 bytes
#: so slot 0 starts cache-line aligned.
_HEADER = struct.Struct("<8sII")
HEADER_BYTES = 64


_attach_lock = threading.Lock()

#: Live mappings held by this process, keyed per page-file instance
#: (the same segment may be mapped twice in one process — owner plus an
#: in-process attacher): id -> (name, bytes, is_owner).  Maintained by
#: ``SharedMemoryPageFile.__init__``/``close`` so the resource sampler
#: (:mod:`repro.obs.resources`) can report how much of ``/dev/shm`` this
#: process holds (owner) or maps (attacher) without walking the
#: filesystem.
_live_segments: dict[int, tuple[str, int, bool]] = {}
_live_lock = threading.Lock()


def live_segments() -> list[tuple[str, int, bool]]:
    """Snapshot of live mappings: ``(name, bytes, is_owner)`` per mapping."""
    with _live_lock:
        return list(_live_segments.values())


@contextlib.contextmanager
def _untracked_attach():
    """Swap ``resource_tracker.register`` out while attaching a segment.

    ``SharedMemory.__init__`` registers the name with the tracker even
    for a plain attach (3.8–3.12), which makes the tracker unlink the
    segment when the attaching process exits.  The lock serializes the
    swap so concurrent *owning* creations in other threads still
    register normally.
    """
    with _attach_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            yield
        finally:
            resource_tracker.register = original


class SharedMemoryPageFile(PageFile):
    """Read-only page store over one shared-memory block (see module doc)."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        page_size: int,
        page_count: int,
        owner: bool,
    ) -> None:
        super().__init__(page_size)
        self._shm = shm
        self._page_count = page_count
        self._owner = owner
        self._closed = False
        with _live_lock:
            _live_segments[id(self)] = (shm.name, shm.size, owner)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(
        cls, source: PageFile, name: str | None = None
    ) -> "SharedMemoryPageFile":
        """Copy every page image of ``source`` into a new shared block.

        The caller becomes the segment's owner (``close`` unlinks).  The
        source is left untouched; freshly allocated but never-written
        pages are frozen as empty (structurally valid) page images.
        """
        page_size = source.page_size
        page_count = source.page_count
        size = HEADER_BYTES + page_count * page_size
        shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        try:
            shm.buf[:HEADER_BYTES] = _HEADER.pack(
                MAGIC, page_size, page_count
            ).ljust(HEADER_BYTES, b"\x00")
            for page_id in range(page_count):
                raw = _raw_page_image(source, page_id)
                off = HEADER_BYTES + page_id * page_size
                shm.buf[off : off + page_size] = raw
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(shm, page_size, page_count, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedMemoryPageFile":
        """Attach to an existing segment by name (non-owning)."""
        # The attaching process's resource tracker must not adopt the
        # segment: it would unlink it (destroying the owner's data) when
        # *this* process exits.  Suppress registration rather than
        # unregistering afterwards — fork-mode children share the
        # parent's tracker process, so an unregister message from a
        # child would silently drop the OWNER's registration (and the
        # tracker then warns on the owner's own unlink).  See module
        # docstring; ``track=False`` (3.13) replaces this eventually.
        with _untracked_attach():
            shm = shared_memory.SharedMemory(name=name)
        try:
            magic, page_size, page_count = _HEADER.unpack_from(shm.buf, 0)
            if magic != MAGIC:
                raise StorageError(
                    f"shared segment {name!r} is not a page file "
                    f"(magic {magic!r})"
                )
            expected = HEADER_BYTES + page_count * page_size
            if shm.size < expected:
                raise StorageError(
                    f"shared segment {name!r} truncated: header claims "
                    f"{expected} bytes, segment has {shm.size}"
                )
        except BaseException:
            shm.close()
            raise
        return cls(shm, page_size, page_count, owner=False)

    # ------------------------------------------------------------------
    # PageFile interface
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The segment name other processes attach by."""
        return self._shm.name

    @property
    def is_owner(self) -> bool:
        return self._owner

    def allocate(self) -> int:
        raise StorageError("shared-memory page file is read-only (frozen)")

    def write(self, page: Page) -> None:
        raise StorageError("shared-memory page file is read-only (frozen)")

    def read(self, page_id: int) -> Page:
        if self._closed:
            raise StorageError("shared-memory page file is closed")
        if not 0 <= page_id < self._page_count:
            raise PageNotFoundError(page_id)
        self.stats.record_read()
        off = HEADER_BYTES + page_id * self.page_size
        raw = bytes(self._shm.buf[off : off + self.page_size])
        return Page.decode(page_id, raw, self.page_size)

    @property
    def page_count(self) -> int:
        return self._page_count

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap; the owner also unlinks the segment from the system."""
        if self._closed:
            return
        self._closed = True
        with _live_lock:
            _live_segments.pop(id(self), None)
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked elsewhere
                pass

    def __enter__(self) -> "SharedMemoryPageFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # safety net; close() is the real API
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def __reduce__(self):
        raise StorageError(
            "SharedMemoryPageFile does not pickle; transfer the segment "
            "name and attach() in the target process"
        )


def _raw_page_image(source: PageFile, page_id: int) -> bytes:
    """The encoded on-storage image of one page of ``source``."""
    if isinstance(source, MemoryPageFile):
        # Fast path: grab the stored image without touching read stats.
        raw = source._pages.get(page_id)
        if raw is None:
            raise PageNotFoundError(page_id)
        if not raw:  # allocated but never written
            return Page(page_id, b"").encode(source.page_size)
        return raw
    return source.read(page_id).encode(source.page_size)
