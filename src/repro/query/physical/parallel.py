"""Whole-query process dispatch: the service's escape from the GIL.

The paper's operators (HPSJ, HPSJ+ Filter/Fetch) run sequentially in
every process.  What runs in parallel is whole queries: the query
service's ``dispatch="process"`` mode ships each admitted query, end to
end, to one worker of a :class:`WorkerPool`, so ``max_inflight`` slots
occupy ``max_inflight`` cores instead of threads sharing one GIL.

* :class:`WorkerPool` — a fork-context ``ProcessPoolExecutor`` bound to
  one snapshot-backed database.  The initializer ships the snapshot
  *descriptor* (a path plus scalar configuration) and every worker
  re-opens the file itself (:func:`_init_snapshot_worker`), so all
  workers map the same bytes, backed by one copy in the OS page cache,
  and nothing index-sized crosses the process boundary.  The pool
  registers itself as a holder on the snapshot
  (:meth:`~repro.storage.snapshot.Snapshot.acquire`), so closing the
  snapshot while the pool lives raises a clean ``SnapshotError`` naming
  the pool instead of poisoning worker queries mid-flight.
* :func:`_run_query_task` — the worker side: plan, execute and project
  one query on a per-process engine over the re-opened snapshot, and
  ship back only the columns, rows and a few counters.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import List, Optional, Tuple

from ...db.database import GraphDatabase
from .operators import Row


def fork_available() -> bool:
    """True when the platform offers the fork start method (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# worker-side entry points
# ----------------------------------------------------------------------
# The database this worker process serves, opened by the initializer.
_WORKER_DB: Optional[GraphDatabase] = None

# The per-process engine wrapped around _WORKER_DB, built lazily on the
# first query task.  Its plan cache, CenterCache and code cache warm up
# across the queries routed to this process.
_WORKER_ENGINE = None


def _init_snapshot_worker(descriptor: Tuple) -> None:
    """Open the pool's snapshot file inside this worker process.

    *descriptor* is ``GraphDatabase.snapshot_descriptor()``: just a path
    plus scalar configuration.  Every worker maps the same on-disk
    bytes, so the OS page cache backs the whole pool with one copy.
    """
    global _WORKER_DB
    # imported lazily: only worker processes need it
    from ...storage.snapshot import Snapshot

    (path, generation, buffer_bytes, page_size,
     code_cache_enabled, use_views) = descriptor
    db = GraphDatabase.from_snapshot(
        Snapshot.open(path),
        buffer_bytes=buffer_bytes,
        page_size=page_size,
        code_cache_enabled=code_cache_enabled,
        use_views=use_views,
    )
    # align with the coordinator's generation so cache sync and the
    # sanitizer's generation assertions agree across the pool
    db.index_generation = generation
    _WORKER_DB = db


def _probe_worker() -> bool:
    """No-op warm-up task (also checks the initializer ran)."""
    return _WORKER_DB is not None


# payload = (pattern, optimizer, limit, row_limit, batch_size, timeout_s)
QueryPayload = Tuple[
    str, str, Optional[int], Optional[int], Optional[int], Optional[float]
]
# result = (columns, rows, truncated, stop_reason,
#           (cache hits, misses, evictions), (exec start, exec end))
QueryTaskResult = Tuple[
    Tuple[str, ...],
    List[Row],
    bool,
    Optional[str],
    Tuple[int, int, int],
    Tuple[float, float],
]


def _run_query_task(payload: QueryPayload) -> QueryTaskResult:
    """Execute one whole admitted query inside a pool worker.

    Only the payload (a pattern string plus scalars) and the result rows
    cross the process boundary.  The execution span is measured with
    ``time.monotonic`` — on Linux a system-wide clock, so spans from
    different worker processes are directly comparable (the
    overlapping-exec-windows test rides this).
    """
    global _WORKER_ENGINE
    db = _WORKER_DB
    if db is None:  # pragma: no cover - defensive: initializer not run
        raise RuntimeError("worker has no database handle")
    engine = _WORKER_ENGINE
    if engine is None or engine.db is not db:
        # imported lazily: the engine module sits above this one
        from ...query.engine import GraphEngine

        engine = GraphEngine.from_database(db)
        _WORKER_ENGINE = engine
    pattern, optimizer, limit, row_limit, batch_size, timeout_s = payload
    started = time.monotonic()
    stream = engine.match_iter(
        pattern,
        optimizer=optimizer,
        limit=limit,
        row_limit=row_limit,
        batch_size=batch_size,
        timeout=timeout_s,
    )
    try:
        rows = list(stream)
    finally:
        stream.close()
    ended = time.monotonic()
    cache = stream.metrics.center_cache
    counts = (
        (cache.hits, cache.misses, cache.evictions)
        if cache is not None
        else (0, 0, 0)
    )
    return (
        stream.columns,
        rows,
        stream.metrics.truncated,
        stream.metrics.stop_reason,
        counts,
        (started, ended),
    )


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A fork-context process pool serving whole queries over a snapshot.

    *db* must be snapshot-backed (``db.snapshot_descriptor()`` is not
    ``None``): each worker re-opens the file by descriptor.  One worker
    starts eagerly, so construction surfaces fork or open failures and
    the first query does not pay the whole start-up.
    """

    def __init__(self, db: GraphDatabase, workers: int) -> None:
        descriptor = db.snapshot_descriptor()
        if descriptor is None:
            raise ValueError(
                "the worker pool needs a snapshot-backed database: "
                "workers re-open the snapshot by descriptor"
            )
        if not fork_available():
            raise ValueError("the worker pool needs the fork start method")
        self.workers = max(1, int(workers))
        self.closed = False
        # hold the mapping for the pool's lifetime: the workers map the
        # same file, so a close() now would poison in-flight queries
        self._snapshot = db.snapshot_handle
        self._owner_label = f"WorkerPool(process, workers={self.workers})"
        self._snapshot.acquire(self._owner_label)
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_snapshot_worker,
                initargs=(descriptor,),
            )
            self._executor.submit(_probe_worker).result()
        except BaseException:
            self.shutdown()
            raise

    def submit_query(self, payload: QueryPayload) -> "Future[QueryTaskResult]":
        """Route one whole admitted query to a worker process.

        A pool whose worker died raises ``BrokenProcessPool`` here or
        from the future — also after :meth:`shutdown`, so a caller
        holding a pool that another thread has just replaced can tell
        "retry on the new pool" from any other failure.
        """
        return self._executor.submit(_run_query_task, payload)

    def shutdown(self) -> None:
        """Terminate the workers and release the snapshot; idempotent."""
        if self.closed:
            return
        self.closed = True
        executor = getattr(self, "_executor", None)
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        self._snapshot.release(self._owner_label)
