"""The always-on asyncio query service.

One long-running process owns one :class:`~repro.query.engine.GraphEngine`
— its indexes, plan cache and :class:`CenterCache` — and serves
concurrent pattern queries over the line-delimited JSON protocol
(:mod:`repro.service.protocol`).  Clients connect over TCP, pipeline
requests, and get responses matched by ``id``.

Concurrency model
-----------------
Admitted queries run **concurrently with no engine-wide lock**.  The
shared structures each carry their own discipline instead:

* the engine's :class:`CenterCache` is striped into independently
  locked shards (per-shard LRU + counters), so concurrent queries
  contend only when they hash to the same shard;
* the plan cache takes a short per-engine lock around dictionary bumps
  only — never around execution;
* the storage read path is tiered per engine.  **Snapshot tier**
  (mmap-backed databases): reads address an immutable mapping, so
  execution takes no storage locks at all.  **Live tier** (B+-tree
  databases): the buffer pool's page table and the index memos take
  fine-grained per-structure locks around individual lookups;
* per-query accounting is exact, not delta-of-globals: each execution
  context carries its own cache recorder, and each slot thread runs
  under a thread-local :func:`~repro.storage.stats.use_stats` override,
  so overlapping queries never bleed counters into each other.

``dispatch="process"`` (snapshot tier only) goes further: each admitted
query is shipped whole to a process
:class:`~repro.query.physical.parallel.WorkerPool` whose workers
re-opened the snapshot by descriptor — nothing index-sized crosses the
process boundary, and ``max_inflight=4`` occupies four *cores* instead
of four threads sharing one GIL.  The pool is supervised: when a worker
dies (the executor reports ``BrokenProcessPool``) the first slot to
notice replaces the pool, under a lock so concurrent slots build exactly
one, and every affected read-only query is retried once on the new pool
(``pool_restarts`` in ``stats`` counts the rebuilds).  The default
``dispatch="auto"`` resolves to in-process slot threads, which still
overlap all I/O waits and, on the snapshot tier, all mmap page faults.

What overlaps in every mode: protocol parsing, admission, response
serialization, socket I/O (all on the event loop) and the engine's
amortized state (plan cache, CenterCache, warm workers, hot buffer pool)
— which is where the service's throughput win over per-query cold
process invocations comes from.

Admission control (:class:`AdmissionScheduler`) bounds the system:
``max_inflight`` executor slots, ``queue_depth`` waiting queries,
everything beyond shed with a fast ``overloaded`` reject.  The executor
is sized exactly to ``max_inflight`` so ``run_in_executor`` can never
buffer work behind the scheduler's back.

Deadlines ride the streaming driver: a query's ``timeout_ms`` is
measured from *admission* (queue wait included, as a client experiences
it); whatever remains when a slot opens is handed to
``GraphEngine.match_iter(timeout=...)``, whose cooperative deadline
stops the stream between rows and flags the response ``truncated`` with
``stop_reason="timeout"``.  A deadline that expires while still queued
is answered with a ``timeout`` error without touching the engine.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..query import PatternError, RowLimitExceeded, WorkerPool
from ..query.engine import GraphEngine
from ..storage.stats import IOStats, use_stats
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from .scheduler import AdmissionScheduler, Overloaded, ServiceStats


@dataclass
class ServiceConfig:
    """Tunables for one :class:`QueryService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral: read the bound port off ``address``
    #: concurrent query slots; admitted queries execute in parallel
    #: (no engine-wide lock — see the module docstring's tier model)
    max_inflight: int = 2
    #: admission queue depth; arrivals beyond it are shed
    queue_depth: int = 16
    #: where admitted queries execute: ``"auto"`` (in-process slot
    #: threads), ``"inline"`` (same, explicitly), or ``"process"`` —
    #: ship each query whole to a process worker pool (snapshot-backed
    #: engines only; raises ``ValueError`` otherwise)
    dispatch: str = "auto"
    #: deadline applied when a query carries no ``timeout_ms`` (seconds;
    #: ``None`` = no default deadline)
    default_timeout_s: Optional[float] = None
    #: hard cap on rows returned per query, applied as a stream limit
    #: even when the client asks for more (or for everything)
    max_result_rows: int = 1_000_000


class QueryService:
    """Serve concurrent pattern queries against one shared engine."""

    def __init__(
        self, engine: GraphEngine, config: Optional[ServiceConfig] = None
    ) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self.scheduler = AdmissionScheduler(
            self.config.max_inflight, self.config.queue_depth
        )
        dispatch = self.config.dispatch
        if dispatch not in ("auto", "inline", "process"):
            raise ValueError(
                f"dispatch must be 'auto', 'inline' or 'process', "
                f"got {dispatch!r}"
            )
        if dispatch == "auto":
            dispatch = "inline"
        #: resolved execution mode: ``"inline"`` or ``"process"``
        self.dispatch = dispatch
        self._pool: Optional[WorkerPool] = None
        #: serializes replacing a broken pool (slot threads race for it)
        self._pool_lock = threading.Lock()
        if dispatch == "process":
            if engine.db.snapshot_descriptor() is None:
                raise ValueError(
                    "dispatch='process' needs a snapshot-backed engine: "
                    "workers re-open the snapshot by descriptor"
                )
            self._pool = WorkerPool(engine.db, self.config.max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-query",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        #: open client connections: handler task -> its writer
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: one task per in-flight request
        self._tasks: Set[asyncio.Task] = set()
        self._started_at = time.perf_counter()
        self._stopping = False

    @property
    def tier(self) -> str:
        """Which concurrency tier this engine runs in (module docstring):
        ``"snapshot-lockfree"`` for mmap-backed engines (reads take no
        storage locks), ``"live-finegrained"`` for B+-tree engines
        (per-structure locks on the buffer pool and index memos)."""
        if self.engine.db.snapshot_descriptor() is not None:
            return "snapshot-lockfree"
        return "live-finegrained"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "service not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        assert self._server is not None, "service not started"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, bounce queued work, close the connections and
        finish in-flight queries — all before the event loop can close,
        so no connection handler outlives it."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for waiter in self.scheduler.drain():
            if not waiter.done():
                waiter.set_exception(Overloaded("service stopping"))
        requests = list(self._tasks)
        for task in requests:
            task.cancel()
        # closing the transport ends each handler's read loop with EOF,
        # so the handlers finish normally instead of being cancelled
        connections = list(self._connections.items())
        for _task, writer in connections:
            writer.close()
        pending = requests + [task for task, _writer in connections]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown()

    # ------------------------------------------------------------------
    # connection / request handling (event loop)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()  # responses interleave whole lines only
        requests: Set[asyncio.Task] = set()
        connection = asyncio.current_task()
        assert connection is not None
        self._connections[connection] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer, write_lock,
                        error_response(None, "bad_request", "request line too long"),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # one task per request: queries must not block the read
                # loop, so pipelined requests overlap
                task = asyncio.ensure_future(
                    self._handle_request(line, writer, write_lock)
                )
                requests.add(task)
                self._tasks.add(task)
                task.add_done_callback(requests.discard)
                task.add_done_callback(self._tasks.discard)
        finally:
            for task in requests:
                task.cancel()
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.pop(connection, None)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: Dict[str, Any],
    ) -> None:
        data = encode(payload)
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer went away; the read loop will notice

    async def _handle_request(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            request = parse_request(line)
        except ProtocolError as err:
            self.stats.mark_error()
            await self._send(
                writer, write_lock, error_response(None, err.code, str(err))
            )
            return
        try:
            if request.op == "ping":
                payload: Dict[str, Any] = {
                    "id": request.id, "ok": True, "pong": True,
                }
            elif request.op == "stats":
                payload = self._stats_payload(request.id)
            else:
                payload = await self._run_query(request)
        except asyncio.CancelledError:
            raise
        except Exception as err:  # noqa: BLE001 - every request gets an answer
            self.stats.mark_error()
            payload = error_response(
                request.id, "internal", f"{type(err).__name__}: {err}"
            )
        await self._send(writer, write_lock, payload)

    def _stats_payload(self, request_id: Any) -> Dict[str, Any]:
        snapshot = self.stats.snapshot()
        cache = self.engine.center_cache
        snapshot.update(
            {
                "id": request_id,
                "ok": True,
                "uptime_s": time.perf_counter() - self._started_at,
                "inflight": self.scheduler.inflight,
                "queued": self.scheduler.queued,
                "tier": self.tier,
                "dispatch": self.dispatch,
                "engine": {
                    "plan_cache_entries": len(getattr(self.engine, "_plan_cache", ())),
                    "center_cache_entries": cache.entry_count,
                    "center_cache_hit_rate": cache.hit_rate,
                    "index_generation": getattr(self.engine.db, "index_generation", 0),
                },
            }
        )
        return snapshot

    # ------------------------------------------------------------------
    # the query path
    # ------------------------------------------------------------------
    async def _run_query(self, request: Request) -> Dict[str, Any]:
        self.stats.mark_received()
        if self._stopping:
            self.stats.mark_shed()
            return error_response(request.id, "shutdown", "service stopping")
        loop = asyncio.get_running_loop()
        admitted = time.perf_counter()
        timeout_s = (
            request.timeout_ms / 1000.0
            if request.timeout_ms is not None
            else self.config.default_timeout_s
        )
        deadline = admitted + timeout_s if timeout_s is not None else None
        try:
            waiter = self.scheduler.try_acquire(
                priority=request.priority, waiter_factory=loop.create_future
            )
        except Overloaded as err:
            self.stats.mark_shed()
            return error_response(request.id, "overloaded", str(err))
        if waiter is not None:
            try:
                await waiter  # slot transfers on resolution
            except Overloaded as err:
                self.stats.mark_shed()
                return error_response(request.id, "shutdown", str(err))
            except asyncio.CancelledError:
                # dropped while queued: release() skips the done waiter —
                # unless the slot already transferred in the same tick,
                # in which case it is ours to give back
                if (
                    waiter.done()
                    and not waiter.cancelled()
                    and waiter.exception() is None
                ):
                    self.scheduler.release()
                raise
        # from here on we hold a slot and must release it exactly once
        try:
            queue_wait_s = time.perf_counter() - admitted
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    self.stats.mark_timeout()
                    return error_response(
                        request.id, "timeout",
                        "deadline expired while queued for admission",
                    )
            try:
                result = await loop.run_in_executor(
                    self._executor, self._execute, request, remaining
                )
            except RowLimitExceeded as err:
                self.stats.mark_error()
                return error_response(request.id, "row_limit", str(err))
            except (PatternError, KeyError, ValueError) as err:
                self.stats.mark_error()
                return error_response(request.id, "bad_request", str(err))
            except Exception as err:  # noqa: BLE001 - the wire needs an answer
                self.stats.mark_error()
                return error_response(
                    request.id, "internal", f"{type(err).__name__}: {err}"
                )
            self.stats.mark_served(
                queue_wait_ms=queue_wait_s * 1000.0,
                exec_ms=result["exec_s"] * 1000.0,
                rows=len(result["rows"]),
                truncated=result["truncated"],
                cache_hits=result["cache_hits"],
                cache_misses=result["cache_misses"],
            )
            if result["stop_reason"] == "timeout":
                self.stats.mark_timeout()
            return ok_response(
                request.id,
                columns=result["columns"],
                rows=result["rows"],
                truncated=result["truncated"],
                stop_reason=result["stop_reason"],
                metrics={
                    "queue_ms": round(queue_wait_s * 1000.0, 3),
                    "exec_ms": round(result["exec_s"] * 1000.0, 3),
                    # monotonic (start, end) of the execution window —
                    # comparable across concurrent responses, so clients
                    # (and the differential suite) can prove overlap
                    "exec_span": list(result["exec_span"]),
                    "rows": len(result["rows"]),
                    "cache_hit_rate": result["cache_hit_rate"],
                },
            )
        finally:
            self.scheduler.release()

    def _execute(
        self, request: Request, timeout_s: Optional[float]
    ) -> Dict[str, Any]:
        """Run one admitted query (executor thread — no engine lock).

        Overlapping slot threads share the engine's caches but keep
        exact private accounting: cache counts come from the execution
        context's own recorder, and I/O is charged to a thread-local
        :class:`IOStats` override for the duration of the query.  The
        execution span is measured on ``time.monotonic`` so spans from
        inline slots and process workers are directly comparable.
        """
        limit = self.config.max_result_rows
        if request.limit is not None:
            limit = min(limit, request.limit)
        if self._pool is not None:
            payload = (
                request.pattern,
                request.optimizer,
                limit,
                request.row_limit,
                None,
                timeout_s,
            )
            columns, rows, truncated, stop_reason, counts, span = (
                self._run_in_pool(payload)
            )
            hits, misses, _evictions = counts
            lookups = hits + misses
            return {
                "columns": columns,
                "rows": rows,
                "truncated": truncated,
                "stop_reason": stop_reason,
                "exec_s": span[1] - span[0],
                "exec_span": span,
                "cache_hits": hits,
                "cache_misses": misses,
                "cache_hit_rate": hits / lookups if lookups else 0.0,
            }
        started = time.monotonic()
        with use_stats(IOStats()):
            stream = self.engine.match_iter(
                request.pattern,
                optimizer=request.optimizer,
                limit=limit,
                row_limit=request.row_limit,
                timeout=timeout_s,
            )
            try:
                rows = list(stream)
            finally:
                stream.close()
        ended = time.monotonic()
        cache = stream.metrics.center_cache
        hits = cache.hits if cache is not None else 0
        misses = cache.misses if cache is not None else 0
        return {
            "columns": stream.columns,
            "rows": rows,
            "truncated": stream.metrics.truncated,
            "stop_reason": stream.metrics.stop_reason,
            "exec_s": ended - started,
            "exec_span": (started, ended),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": cache.hit_rate if cache is not None else 0.0,
        }

    def _run_in_pool(self, payload: Tuple) -> Tuple:
        """Run one query on the process pool, retrying it once on a new
        pool if a worker died; a second break propagates."""
        pool = self._pool
        assert pool is not None
        try:
            return pool.submit_query(payload).result()
        except BrokenProcessPool:
            pool = self._replace_pool(pool)
        return pool.submit_query(payload).result()

    def _replace_pool(self, broken: WorkerPool) -> WorkerPool:
        """Swap *broken* for a fresh pool unless another slot already did."""
        with self._pool_lock:
            if self._pool is broken:
                broken.shutdown()
                self._pool = WorkerPool(self.engine.db, self.config.max_inflight)
                self.stats.mark_pool_restart()
            assert self._pool is not None
            return self._pool


# ----------------------------------------------------------------------
# embedding: run the service on a background thread (tests, harness)
# ----------------------------------------------------------------------
class ServiceHandle:
    """A running service on its own event-loop thread."""

    def __init__(
        self,
        service: QueryService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.service.address

    def stop(self) -> None:
        """Stop the service and join its thread (idempotent)."""
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop).result(
            timeout=30
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def start_in_thread(
    engine: GraphEngine, config: Optional[ServiceConfig] = None
) -> ServiceHandle:
    """Start a :class:`QueryService` on a daemon thread and wait for bind."""
    ready = threading.Event()
    holder: Dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        service = QueryService(engine, config)
        try:
            loop.run_until_complete(service.start())
        except Exception as err:  # noqa: BLE001 - surface bind failures
            holder["error"] = err
            ready.set()
            loop.close()
            return
        holder["service"] = service
        holder["loop"] = loop
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=runner, name="repro-service", daemon=True)
    thread.start()
    ready.wait(timeout=30)
    if "error" in holder:
        raise holder["error"]
    return ServiceHandle(holder["service"], holder["loop"], thread)
