"""Tests for pages, disk manager, buffer pool and heap files."""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.pages import (
    DEFAULT_PAGE_SIZE,
    DiskManager,
    Page,
    PageFullError,
    record_size,
)
from repro.storage.stats import IOStats


class TestRecordSize:
    def test_scalars(self):
        assert record_size(5) == 4
        assert record_size(3.14) == 8
        assert record_size(True) == 1
        assert record_size(None) == 1
        assert record_size("abc") == 4
        assert record_size(b"abc") == 3

    def test_containers_recursive(self):
        assert record_size((1, 2)) == 4 + 8
        assert record_size([1, (2, 3)]) == 4 + 4 + (4 + 8)
        assert record_size({"a": 1}) == 4 + 2 + 4

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            record_size(object())


class TestPage:
    def test_append_and_get(self):
        page = Page(0, capacity=256)
        slot = page.append((1, 2, 3))
        assert slot == 0
        assert page.get(0) == (1, 2, 3)
        assert len(page) == 1

    def test_fills_up_and_raises(self):
        page = Page(0, capacity=64)
        inserted = 0
        with pytest.raises(PageFullError):
            while True:
                page.append((inserted,))
                inserted += 1
        assert inserted >= 2
        assert page.free_space() < 12

    def test_oversized_record_on_empty_page_is_stored(self):
        page = Page(0, capacity=32)
        page.append(tuple(range(100)))  # bigger than the page
        assert len(page) == 1
        assert page.free_space() < 0 or page.used >= 32

    def test_put_adjusts_budget(self):
        page = Page(0, capacity=256)
        page.append((1,))
        used_before = page.used
        page.put(0, (1, 2, 3))
        assert page.used == used_before + 8
        assert page.get(0) == (1, 2, 3)

    def test_put_untracked_keeps_budget(self):
        page = Page(0, capacity=256)
        page.append((1,))
        used_before = page.used
        page.put_untracked(0, tuple(range(50)))
        assert page.used == used_before
        assert page.dirty


class TestDiskManager:
    def test_allocate_sequential_ids(self):
        disk = DiskManager()
        assert disk.allocate().page_id == 0
        assert disk.allocate().page_id == 1
        assert disk.page_count == 2

    def test_read_unallocated_raises(self):
        with pytest.raises(KeyError):
            DiskManager().read_page(7)

    def test_free_releases_pages_and_never_reuses_ids(self):
        disk = DiskManager()
        pages = [disk.allocate() for _ in range(3)]
        disk.free([pages[0].page_id, pages[2].page_id])
        assert disk.page_count == 1
        with pytest.raises(KeyError):
            disk.read_page(pages[0].page_id)
        assert disk.allocate().page_id == 3

    def test_write_back_of_freed_page_is_charged_not_stored(self):
        disk = DiskManager(page_size=64)
        pool = BufferPool(disk, capacity_bytes=64, stats=IOStats())
        freed = pool.new_page()
        freed.append((1,))
        pool.free([freed.page_id])
        pool.new_page()  # evicts the dirty freed page
        assert pool.stats.physical_writes == 1
        assert disk.page_count == 1


class TestBufferPool:
    def _pool(self, frames: int) -> BufferPool:
        disk = DiskManager(page_size=64)
        return BufferPool(disk, capacity_bytes=64 * frames, stats=IOStats())

    def test_fetch_hit_after_new_page(self):
        pool = self._pool(4)
        page = pool.new_page()
        fetched = pool.fetch(page.page_id)
        assert fetched is page
        assert pool.stats.physical_reads == 0
        assert pool.stats.logical_reads == 1

    def test_new_page_is_not_an_io_event(self):
        """Allocation moves no read counter — the documented contract.

        ``new_page`` admits a fresh frame without reading anything, so
        ``logical_reads``/``physical_reads`` stay put; the page's first
        write-back is what lands in ``physical_writes``.  Every
        I/O-count assertion in the suite is calibrated against this.
        """
        pool = self._pool(4)
        for _ in range(3):
            pool.new_page()
        assert pool.stats.logical_reads == 0
        assert pool.stats.physical_reads == 0
        assert pool.stats.physical_writes == 0

    def test_eviction_causes_physical_read(self):
        pool = self._pool(2)
        pages = [pool.new_page() for _ in range(3)]  # evicts pages[0]
        assert pool.resident_pages == 2
        pool.fetch(pages[0].page_id)  # miss
        assert pool.stats.physical_reads == 1

    def test_lru_keeps_recently_used(self):
        pool = self._pool(2)
        p0 = pool.new_page()
        p1 = pool.new_page()
        pool.fetch(p0.page_id)   # p1 is now LRU
        pool.new_page()          # evicts p1
        pool.fetch(p0.page_id)
        assert pool.stats.physical_reads == 0
        pool.fetch(p1.page_id)
        assert pool.stats.physical_reads == 1

    def test_dirty_eviction_writes_back(self):
        pool = self._pool(1)
        page = pool.new_page()
        page.append((1,))
        pool.new_page()  # evicts the dirty page
        assert pool.stats.physical_writes == 1
        refetched = pool.fetch(page.page_id)
        assert refetched.get(0) == (1,)

    def test_hit_ratio(self):
        pool = self._pool(4)
        page = pool.new_page()
        for _ in range(9):
            pool.fetch(page.page_id)
        assert pool.stats.hit_ratio == 1.0

    def test_clear_cold_starts(self):
        pool = self._pool(4)
        page = pool.new_page()
        pool.clear()
        pool.fetch(page.page_id)
        assert pool.stats.physical_reads == 1


class TestIOStats:
    def test_delta_since(self):
        stats = IOStats()
        stats.physical_reads = 5
        snap = stats.snapshot()
        stats.physical_reads = 12
        stats.record_lookup("pk")
        delta = stats.delta_since(snap)
        assert delta.physical_reads == 7
        assert delta.index_lookups == {"pk": 1}

    def test_reset(self):
        stats = IOStats()
        stats.logical_reads = 3
        stats.record_lookup("x")
        stats.reset()
        assert stats.logical_reads == 0
        assert stats.index_lookups == {}


class TestHeapFile:
    def _heap(self) -> HeapFile:
        pool = BufferPool(DiskManager(page_size=128), capacity_bytes=1024)
        return HeapFile(pool)

    def test_append_and_read(self):
        heap = self._heap()
        rid = heap.append((1, 2))
        assert heap.read(rid) == (1, 2)
        assert len(heap) == 1

    def test_scan_order_preserved(self):
        heap = self._heap()
        rows = [(i, i * i) for i in range(50)]
        heap.extend(rows)
        assert list(heap.records()) == rows
        assert heap.page_count > 1  # spilled past one page

    def test_scan_yields_record_ids(self):
        heap = self._heap()
        rids = [heap.append((i,)) for i in range(10)]
        scanned = [rid for rid, _ in heap.scan()]
        assert scanned == rids

    def test_drop_frees_every_page(self):
        heap = self._heap()
        heap.extend((i,) for i in range(100))
        disk = heap.pool.disk
        assert disk.page_count == heap.page_count > 1
        heap.drop()
        assert disk.page_count == 0
        assert heap.page_count == 0 and len(heap) == 0

    def test_full_scan_costs_page_reads(self):
        heap = self._heap()
        heap.extend((i,) for i in range(100))
        heap.pool.stats.reset()
        list(heap.records())
        assert heap.pool.stats.logical_reads == heap.page_count
