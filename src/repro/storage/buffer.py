"""LRU buffer pool over the simulated disk.

The paper's experiments run with a 1 MiB buffer (Section 6: "the buffer
size we used in our testing is 1MB for I/O access"), which is this module's
default.  All page traffic from heap files and B+-trees flows through
:meth:`BufferPool.fetch`, so the shared :class:`~repro.storage.stats.IOStats`
sees exactly the page-miss behaviour a real bounded buffer would produce —
the effect that makes DP's larger intermediate results cost "over five
times the I/O" of DPS at scale.

Concurrency: the page table (frame map + LRU order + victim write-back)
is guarded by one re-entrant lock, making ``fetch``/``new_page`` safe
under the service's fine-grained live tier where concurrent queries
traverse B+-trees over the same pool.  The lock is re-entrant because
``clear`` nests ``flush_all``.  I/O charges resolve through the
:attr:`stats` property, which honours a per-thread
:func:`~repro.storage.stats.use_stats` override so overlapping queries
get exact, non-interleaved I/O attribution.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from .pages import DiskManager, Page
from .stats import IOStats, active_stats

DEFAULT_BUFFER_BYTES = 1 << 20  # 1 MiB, as in the paper's test setup


class BufferPool:
    """A fixed-capacity LRU cache of pages with I/O accounting."""

    def __init__(
        self,
        disk: Optional[DiskManager] = None,
        capacity_bytes: int = DEFAULT_BUFFER_BYTES,
        stats: Optional[IOStats] = None,
    ) -> None:
        self.disk = disk or DiskManager()
        self._base_stats = stats or IOStats()
        self.frame_count = max(1, capacity_bytes // self.disk.page_size)
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        self._lock = threading.RLock()

    @property
    def stats(self) -> IOStats:
        """The recorder charges land on: thread override, else the pool's."""
        override = active_stats()
        return override if override is not None else self._base_stats

    # a live database is shipped whole to process-pool workers; locks do
    # not pickle, so the worker re-creates its own (post-fork the child
    # is single-threaded and the parent's lock state is meaningless)
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def new_page(self) -> Page:
        """Allocate a fresh page and admit it into the pool.

        Allocation is *not* an I/O event: no existing page is read, so
        neither ``logical_reads`` nor ``physical_reads`` moves.  The
        first write-back of the (dirty) page is what shows up in
        ``physical_writes``.  This is the contract the I/O-count
        assertions throughout the test suite are calibrated against.
        """
        with self._lock:
            page = self.disk.allocate()
            self._admit(page)
            return page

    def fetch(self, page_id: int) -> Page:
        """Return the page, reading it from disk on a miss."""
        with self._lock:
            stats = self.stats
            stats.logical_reads += 1
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                return frame
            stats.physical_reads += 1
            page = self.disk.read_page(page_id)
            self._admit(page)
            return page

    def free(self, page_ids) -> None:
        """Release pages on disk for good, under the page-table lock so a
        concurrent write-back cannot re-store one.  Frames still holding
        a freed page stay: its eviction is charged as before, so every
        I/O counter is the same whether or not pages were freed."""
        with self._lock:
            self.disk.free(page_ids)

    def flush_all(self) -> None:
        """Write back every dirty page without evicting anything."""
        with self._lock:
            for page in self._frames.values():
                if page.dirty:
                    self._write_back(page)

    def clear(self) -> None:
        """Flush and drop every frame — simulates a cold cache."""
        with self._lock:
            self.flush_all()
            self._frames.clear()

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    def _admit(self, page: Page) -> None:
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)
        while len(self._frames) > self.frame_count:
            _, victim = self._frames.popitem(last=False)
            if victim.dirty:
                self._write_back(victim)

    def _write_back(self, page: Page) -> None:
        self.stats.physical_writes += 1
        self.disk.write_page(page)
        page.dirty = False
