"""Tests for memory- and disk-backed page files."""

import os

import pytest

from repro.errors import PageNotFoundError, StorageError
from repro.storage.page import Page
from repro.storage.pagefile import DiskPageFile, MemoryPageFile


class TestMemoryPageFile:
    def test_allocate_sequential_ids(self):
        pf = MemoryPageFile(page_size=128)
        assert [pf.allocate() for _ in range(3)] == [0, 1, 2]
        assert pf.page_count == 3

    def test_write_read_roundtrip(self):
        pf = MemoryPageFile(page_size=128)
        pid = pf.allocate()
        pf.write(Page(pid, b"abc"))
        assert pf.read(pid).payload == b"abc"

    def test_read_unallocated(self):
        pf = MemoryPageFile(page_size=128)
        with pytest.raises(PageNotFoundError):
            pf.read(0)

    def test_write_unallocated(self):
        pf = MemoryPageFile(page_size=128)
        with pytest.raises(PageNotFoundError):
            pf.write(Page(5, b"x"))

    def test_stats_counting(self):
        pf = MemoryPageFile(page_size=128)
        pid = pf.allocate()
        pf.write(Page(pid, b"x"))
        pf.read(pid)
        pf.read(pid)
        assert pf.stats.writes == 1
        assert pf.stats.reads == 2

    def test_tiny_page_size_rejected(self):
        with pytest.raises(StorageError):
            MemoryPageFile(page_size=16)

    def test_corrupt_helper_breaks_read(self):
        from repro.errors import PageCorruptedError

        pf = MemoryPageFile(page_size=128)
        pid = pf.allocate()
        pf.write(Page(pid, b"some payload here"))
        pf.corrupt(pid)
        with pytest.raises(PageCorruptedError):
            pf.read(pid)


class TestDiskPageFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with DiskPageFile(path, page_size=128) as pf:
            pid = pf.allocate()
            pf.write(Page(pid, b"persisted"))
            assert pf.read(pid).payload == b"persisted"

    def test_reopen_preserves_pages(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with DiskPageFile(path, page_size=128) as pf:
            pid0 = pf.allocate()
            pid1 = pf.allocate()
            pf.write(Page(pid0, b"zero"))
            pf.write(Page(pid1, b"one"))
            pf.flush()
        with DiskPageFile(path, page_size=128) as pf:
            assert pf.page_count == 2
            assert pf.read(pid0).payload == b"zero"
            assert pf.read(pid1).payload == b"one"

    def test_fresh_allocation_readable(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with DiskPageFile(path, page_size=128) as pf:
            pid = pf.allocate()
            assert pf.read(pid).payload == b""

    def test_out_of_range_read(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with DiskPageFile(path, page_size=128) as pf:
            with pytest.raises(PageNotFoundError):
                pf.read(0)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with DiskPageFile(path, page_size=128) as pf:
            pf.allocate()
            pf.flush()
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 17)  # not a page multiple
        with pytest.raises(StorageError):
            DiskPageFile(path, page_size=128)

    def test_file_size_matches_pages(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with DiskPageFile(path, page_size=128) as pf:
            for _ in range(4):
                pf.allocate()
            pf.flush()
            assert os.path.getsize(path) == 4 * 128

    def test_one_physical_read_per_page_read(self, tmp_path):
        # Regression: the old implementation re-opened the file on every
        # read; now one descriptor serves the lifetime and each read()
        # costs exactly one positioned read against it.
        path = str(tmp_path / "pages.bin")
        with DiskPageFile(path, page_size=128) as pf:
            pids = [pf.allocate() for _ in range(3)]
            for pid in pids:
                pf.write(Page(pid, b"payload %d" % pid))
            fd = pf._fd
            for i, pid in enumerate(pids * 2, start=1):
                assert pf.read(pid).payload == b"payload %d" % pid
                assert pf.stats.reads == i
                assert pf._fd == fd  # never re-opened

    def test_concurrent_reads_no_seek_races(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        path = str(tmp_path / "pages.bin")
        with DiskPageFile(path, page_size=128) as pf:
            pids = [pf.allocate() for _ in range(8)]
            for pid in pids:
                pf.write(Page(pid, b"p%d" % pid))

            def hammer(pid):
                for _ in range(50):
                    assert pf.read(pid).payload == b"p%d" % pid
                return pid

            with ThreadPoolExecutor(max_workers=4) as pool:
                assert sorted(pool.map(hammer, pids)) == pids
