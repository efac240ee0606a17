"""The two plan drivers: materialize into temporal tables, or stream.

Both drivers interpret the same validated
:class:`~repro.query.algebra.Plan` through the *same* operator pipeline
(:func:`~repro.query.physical.operators.build_pipeline`); they differ
only in how rows move between operators:

* :func:`execute_plan` — the paper's HPSJ+ execution ("stores them into
  T_W"): each operator is drained into a
  :class:`~repro.query.algebra.TemporalTable`, so intermediate reads and
  writes are charged I/O through the buffer pool exactly as the cost
  model prices them.  It is the I/O model the figure benchmarks call
  explicitly; the tables are dropped once the result is projected.
* :func:`execute_plan_streaming` — the classic engine alternative and
  the path every query takes (``GraphEngine.match`` drains it,
  ``match_iter`` returns it): the operators' generators are chained, no
  temporal table ever hits the storage engine, and a ``LIMIT`` stops all
  upstream work the moment enough output exists.

Because Algorithm 1/2 logic (dedup sets, the Remark 3.1 shared scan, the
per-center subcluster cache) lives only in the operators, the two form a
clean ablation pair (``benchmarks/bench_ablations.py``) with identical
result sets *and* identical per-operator ``rows_in``/``rows_out`` when
fully drained.  Both accept ``row_limit`` (the execution guard) and
``verify=True`` (full static plan checking before any row is produced).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ...db.database import GraphDatabase
from ...storage.stats import IOStats
from ..algebra import Plan, TemporalTable
from .cache import CenterCache
from .context import CacheStats, ExecutionContext, OperatorMetrics, temp_name
from .operators import Row, build_pipeline


@dataclass
class RunMetrics:
    """Everything measured while executing one plan (either driver)."""

    elapsed_seconds: float = 0.0
    io: Optional[IOStats] = None
    operators: List[OperatorMetrics] = field(default_factory=list)
    peak_temporal_rows: int = 0
    result_rows: int = 0
    #: CenterCache activity during this run (None when no cache was used)
    center_cache: Optional[CacheStats] = None
    #: always None: execution is sequential.  Kept because the
    #: benchmark's traced pass (``perfbench/workloads.py``) still reads
    #: ``metrics.parallel``; drop it with that reader.
    parallel: None = None
    #: True when a stream stopped before exhausting the operator chain
    #: (LIMIT reached, deadline fired, or explicit close): the rows
    #: delivered are a prefix of the full result, not necessarily all of
    #: it.  Always False for fully drained runs and for ``execute_plan``.
    truncated: bool = False
    #: why a truncated stream stopped: ``"limit"``, ``"timeout"`` or
    #: ``"closed"`` (None when not truncated)
    stop_reason: Optional[str] = None

    @property
    def physical_io(self) -> int:
        return self.io.total_io() if self.io else 0

    @property
    def logical_io(self) -> int:
        return self.io.logical_reads if self.io else 0


@dataclass
class QueryResult:
    """Final matches plus the plan and metrics that produced them."""

    columns: Tuple[str, ...]
    rows: List[Tuple[int, ...]]
    plan: Plan
    metrics: RunMetrics

    def as_set(self) -> set:
        return set(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _verify_plan(plan: Plan, db: GraphDatabase) -> None:
    """Run the full static plan checker; raise listing every violation."""
    # imported lazily: the analysis layer depends on the query layer,
    # not the other way around
    from ...analysis.diagnostics import errors
    from ...analysis.plancheck import PlanVerificationError, check_plan

    found = errors(check_plan(plan, db=db))
    if found:
        raise PlanVerificationError(found)


def _prepare(
    db: GraphDatabase,
    plan: Plan,
    row_limit: Optional[int],
    verify: bool,
    batch_size: Optional[int] = None,
    center_cache: Optional[CenterCache] = None,
    sanitize: bool = False,
):
    """Shared driver preamble: verification, validation, pipeline build.

    Stale-cache handling is NOT done here: constructing the
    :class:`ExecutionContext` below is the single sync choke point that
    re-binds ``center_cache`` to ``db.index_generation`` (enforced by
    the ``contract/sync-choke-point`` deep rule).
    """
    if verify:
        _verify_plan(plan, db)
    plan.validate()
    ctx = ExecutionContext(
        db=db,
        pattern=plan.pattern,
        row_limit=row_limit,
        batch_size=batch_size,
        center_cache=center_cache,
        sanitize=sanitize,
    )
    operators, project = build_pipeline(ctx, plan)
    metrics = RunMetrics(operators=[op.metrics for op in operators])
    return ctx, operators, project, metrics


# ----------------------------------------------------------------------
# driver 1: materializing (the paper's HPSJ+ execution)
# ----------------------------------------------------------------------
def execute_plan(
    db: GraphDatabase,
    plan: Plan,
    row_limit: Optional[int] = None,
    verify: bool = False,
    batch_size: Optional[int] = None,
    center_cache: Optional[CenterCache] = None,
    sanitize: bool = False,
) -> QueryResult:
    """Run *plan*, materializing every intermediate; project the result.

    ``row_limit`` caps every intermediate; exceeding it raises
    :class:`repro.query.algebra.RowLimitExceeded` (an execution guard for
    runaway patterns, not a LIMIT clause — no partial results are
    returned).  ``verify=True`` runs the full static plan checker
    (:func:`repro.analysis.check_plan`, including the catalog checks
    against *db*) before interpretation and raises
    :class:`repro.analysis.PlanVerificationError` listing every violation
    — the belt-and-braces mode for exercising new optimizers.

    ``batch_size`` > 1 runs the Filter/Fetch operators block-at-a-time
    through the vectorized kernels; ``center_cache`` plugs in the
    engine's cross-query :class:`CenterCache` (consulted only in batch
    mode).  Results are identical to the scalar path row for row.
    """
    ctx, operators, project, metrics = _prepare(
        db, plan, row_limit, verify, batch_size=batch_size,
        center_cache=center_cache, sanitize=sanitize,
    )
    io_before = db.stats.snapshot()
    started = time.perf_counter()

    # the run's temporal tables are dropped once the result is projected
    # (or the run fails): their pages leave the simulated disk, while the
    # buffer frames — and so every I/O counter — stay exactly as they are
    tables: List[TemporalTable] = []
    try:
        for op in operators:
            source = tables[-1].scan() if tables else None
            output = TemporalTable.from_layout(
                db.pool, op.layout, name=temp_name(op.name)
            )
            tables.append(output)
            for row in op.rows(source):
                output.insert(row)
            metrics.peak_temporal_rows = max(
                metrics.peak_temporal_rows, output.row_count
            )
        rows = list(project.rows(tables[-1].scan()))
    finally:
        for table in tables:
            table.drop()

    metrics.elapsed_seconds = time.perf_counter() - started
    metrics.io = db.stats.delta_since(io_before)
    metrics.result_rows = len(rows)
    metrics.center_cache = ctx.cache_stats if center_cache is not None else None
    return QueryResult(
        columns=tuple(plan.pattern.variables), rows=rows, plan=plan, metrics=metrics
    )


# ----------------------------------------------------------------------
# driver 2: streaming (pipelined, LIMIT pushdown)
# ----------------------------------------------------------------------
class StreamingResult:
    """Lazy row iterator with the same :class:`RunMetrics` as a full run.

    Nothing executes until the first row is pulled; ``metrics`` is
    populated incrementally by the operators and finalized (elapsed time,
    I/O delta, result count, peak intermediate size) when the stream is
    exhausted.  With a ``limit``, upstream operators stop early and the
    metrics cover only the work actually done.  Call :meth:`close` to
    abandon a stream deterministically.
    """

    def __init__(
        self,
        rows: Iterator[Row],
        metrics: RunMetrics,
        db: GraphDatabase,
        cache_stats: Optional[CacheStats] = None,
        columns: Tuple[str, ...] = (),
    ):
        self._rows = rows
        self._db = db
        self._io_before: Optional[IOStats] = None
        self._started: Optional[float] = None
        # the context's private recorder: exact per-run cache accounting
        # even while other queries hammer the same shared CenterCache
        self._cache_stats = cache_stats
        self._finalized = False
        self.metrics = metrics
        #: projected output columns, in row order (pattern variables) —
        #: same contract as :attr:`QueryResult.columns`
        self.columns = columns

    def __iter__(self) -> "StreamingResult":
        return self

    def __next__(self) -> Row:
        if self._started is None:
            self._started = time.perf_counter()
            self._io_before = self._db.stats.snapshot()
        try:
            row = next(self._rows)
        except StopIteration:
            self._finalize()
            raise
        self.metrics.result_rows += 1
        return row

    def close(self) -> None:
        """Abandon the stream early: close the operator chain and
        finalize the metrics over the work actually performed.  A close
        before exhaustion marks the run ``truncated``
        (``stop_reason="closed"`` unless the stream already stopped
        itself at a limit or deadline)."""
        if not self._finalized:
            self.metrics.truncated = True
            if self.metrics.stop_reason is None:
                self.metrics.stop_reason = "closed"
        self._rows.close()
        if self._started is not None:
            self._finalize()

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        metrics = self.metrics
        metrics.elapsed_seconds = time.perf_counter() - (self._started or 0.0)
        if self._io_before is not None:
            metrics.io = self._db.stats.delta_since(self._io_before)
        metrics.peak_temporal_rows = max(
            (op.rows_out for op in metrics.operators), default=0
        )
        metrics.center_cache = self._cache_stats


def execute_plan_streaming(
    db: GraphDatabase,
    plan: Plan,
    limit: Optional[int] = None,
    row_limit: Optional[int] = None,
    verify: bool = False,
    batch_size: Optional[int] = None,
    center_cache: Optional[CenterCache] = None,
    sanitize: bool = False,
    timeout: Optional[float] = None,
) -> StreamingResult:
    """Yield projected result rows lazily; stop early at *limit*.

    The plan is verified (optionally) and validated before any row is
    produced; ``row_limit`` guards every operator's output exactly as in
    :func:`execute_plan`, and the returned :class:`StreamingResult`
    carries per-operator metrics identical to the materializing driver's
    once the stream is fully drained.  ``batch_size``/``center_cache``
    select the vectorized substrate exactly as in :func:`execute_plan`.

    ``timeout`` is a per-query deadline in seconds, measured from the
    first row pull: once it expires the stream stops before the next
    pull and the metrics are flagged ``truncated`` with
    ``stop_reason="timeout"``.  Cancellation is cooperative — the check
    runs between output rows, so a single long-running operator stage is
    bounded by ``row_limit``, not by the deadline.  Stopping at *limit*
    likewise flags the run truncated (``stop_reason="limit"``): the
    delivered rows are a prefix of the full result, which may or may not
    have had more rows.
    """
    ctx, operators, project, metrics = _prepare(
        db, plan, row_limit, verify, batch_size=batch_size,
        center_cache=center_cache, sanitize=sanitize,
    )
    source: Optional[Iterator[Row]] = None
    for op in operators:
        source = op.rows(source)
    projected = project.rows(source)

    def stop(reason: str) -> None:
        metrics.truncated = True
        metrics.stop_reason = reason

    def bounded() -> Iterator[Row]:
        try:
            if limit is not None and limit <= 0:
                stop("limit")
                return
            # the deadline clock starts at the first pull, matching the
            # wall clock StreamingResult reports in elapsed_seconds
            deadline = (
                time.perf_counter() + timeout if timeout is not None else None
            )
            emitted = 0
            while True:
                if deadline is not None and time.perf_counter() >= deadline:
                    stop("timeout")
                    return
                try:
                    row = next(projected)
                except StopIteration:
                    return
                yield row
                emitted += 1
                if limit is not None and emitted >= limit:
                    stop("limit")
                    return
        finally:
            # explicit teardown (not GC order): stopping at the limit or
            # closing the stream closes every operator generator now
            projected.close()

    return StreamingResult(
        bounded(), metrics, db,
        cache_stats=ctx.cache_stats if center_cache is not None else None,
        columns=tuple(plan.pattern.variables),
    )
