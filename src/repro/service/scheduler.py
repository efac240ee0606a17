"""Cross-query admission control for the always-on service.

Two bounded stages, nothing unbounded anywhere:

* **in-flight slots** — at most ``max_inflight`` queries execute
  concurrently.  Slots map 1:1 onto the server's executor threads, so
  admission is the *only* queue in the system; ``run_in_executor`` never
  buffers behind it.
* **admission queue** — at most ``queue_depth`` queries wait for a
  slot, ordered by (priority desc, arrival order).  A query arriving to
  a full queue is **shed** immediately (:class:`Overloaded`, the wire
  protocol's 429-style ``overloaded`` reject) — under overload the
  server's latency tail stays bounded by ``queue_depth`` × service
  time instead of collapsing under an ever-growing backlog.

The scheduler is deliberately loop-confined: every method must be
called from the event-loop thread (the server does), so the state
machine needs no locks of its own.  Waiters are whatever future-like
object the caller supplies (``loop.create_future`` in the server, a
stub in unit tests); a waiter whose ``done()`` is already true when its
turn comes (connection dropped, task cancelled) is skipped and the slot
passes to the next in line.
"""

from __future__ import annotations

import threading
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple


class Overloaded(Exception):
    """Both the in-flight slots and the admission queue are full."""


class AdmissionScheduler:
    """Bounded slots + bounded priority queue; sheds beyond both."""

    def __init__(self, max_inflight: int = 2, queue_depth: int = 16) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.inflight = 0
        self._seq = 0
        #: (-priority, seq, waiter): max-priority first, FIFO within one
        self._waiting: List[Tuple[int, int, Any]] = []

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def try_acquire(
        self, priority: int = 0, waiter_factory: Optional[Callable[[], Any]] = None
    ) -> Optional[Any]:
        """Claim a slot now (returns ``None``) or join the queue.

        Returns the waiter produced by ``waiter_factory`` when queued —
        the caller awaits it; when it resolves the slot is already
        transferred (do **not** call :meth:`try_acquire` again).  Raises
        :class:`Overloaded` when the queue is at depth: the shed path
        allocates nothing and must stay O(1).
        """
        if self.inflight < self.max_inflight:
            self.inflight += 1
            return None
        if len(self._waiting) >= self.queue_depth or waiter_factory is None:
            raise Overloaded(
                f"{self.inflight} in flight, {len(self._waiting)} queued "
                f"(depth {self.queue_depth})"
            )
        waiter = waiter_factory()
        self._seq += 1
        heappush(self._waiting, (-priority, self._seq, waiter))
        return waiter

    def release(self) -> None:
        """Free one slot; hand it to the best live waiter, if any."""
        while self._waiting:
            _, _, waiter = heappop(self._waiting)
            if waiter.done():  # abandoned while queued: skip, try next
                continue
            waiter.set_result(None)  # slot transfers; inflight unchanged
            return
        self.inflight -= 1

    def drain(self) -> List[Any]:
        """Remove every live waiter (shutdown); caller bounces them."""
        live = [w for _, _, w in self._waiting if not w.done()]
        self._waiting.clear()
        return live


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of raw samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


#: per-query latency samples kept for percentile estimation; bounded so
#: a long-lived server never grows without limit
SAMPLE_WINDOW = 4096


class ServiceStats:
    """Aggregate counters + a bounded latency sample window.

    Recording happens on the event loop; snapshots may be taken from any
    thread (embedding API, tests), so mutation and snapshot share one
    lock.  Latency percentiles are computed over the most recent
    :data:`SAMPLE_WINDOW` served queries — a sliding window, which is
    what an operator dashboards anyway.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.received = 0
        self.served = 0
        self.shed = 0
        self.timeouts = 0
        self.errors = 0
        self.truncated = 0
        self.rows_returned = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: process-dispatch pools rebuilt after a worker died
        self.pool_restarts = 0
        self._queue_wait_ms: Deque[float] = deque(maxlen=SAMPLE_WINDOW)
        self._exec_ms: Deque[float] = deque(maxlen=SAMPLE_WINDOW)
        self._total_ms: Deque[float] = deque(maxlen=SAMPLE_WINDOW)

    def mark_received(self) -> None:
        with self._lock:
            self.received += 1

    def mark_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def mark_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def mark_error(self) -> None:
        with self._lock:
            self.errors += 1

    def mark_pool_restart(self) -> None:
        with self._lock:
            self.pool_restarts += 1

    def mark_served(
        self,
        queue_wait_ms: float,
        exec_ms: float,
        rows: int,
        truncated: bool,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        with self._lock:
            self.served += 1
            self.rows_returned += rows
            if truncated:
                self.truncated += 1
            self.cache_hits += cache_hits
            self.cache_misses += cache_misses
            self._queue_wait_ms.append(queue_wait_ms)
            self._exec_ms.append(exec_ms)
            self._total_ms.append(queue_wait_ms + exec_ms)

    def snapshot(self) -> Dict[str, Any]:
        # one consistent cut of counters + windows is taken under the
        # lock (cheap list copies), then the percentile sorts run with
        # the lock *released* — concurrent slot threads recording
        # mark_served never stall behind an O(n log n) snapshot
        with self._lock:
            total = list(self._total_ms)
            queue_wait = list(self._queue_wait_ms)
            exec_ms = list(self._exec_ms)
            received = self.received
            served = self.served
            shed = self.shed
            timeouts = self.timeouts
            errors = self.errors
            truncated = self.truncated
            rows_returned = self.rows_returned
            cache_hits = self.cache_hits
            cache_misses = self.cache_misses
            pool_restarts = self.pool_restarts
        cache_lookups = cache_hits + cache_misses
        return {
            "received": received,
            "served": served,
            "shed": shed,
            "timeouts": timeouts,
            "errors": errors,
            "truncated": truncated,
            "rows_returned": rows_returned,
            "pool_restarts": pool_restarts,
            "shed_rate": shed / received if received else 0.0,
            "cache_hit_rate": (
                cache_hits / cache_lookups if cache_lookups else 0.0
            ),
            "latency_ms": {
                "p50": percentile(total, 50),
                "p95": percentile(total, 95),
                "p99": percentile(total, 99),
            },
            "queue_wait_ms": {
                "p50": percentile(queue_wait, 50),
                "p99": percentile(queue_wait, 99),
            },
            "exec_ms": {
                "p50": percentile(exec_ms, 50),
                "p99": percentile(exec_ms, 99),
            },
        }
