"""Physical operator layer: one implementation, two drivers.

This package is the single home of the paper's online-phase algebra
(HPSJ, HPSJ+ Filter/Fetch, selections, projection) as Volcano-style
operator classes, plus the two drivers that interpret a validated plan
through them: :func:`execute_plan` (materializing, the paper's HPSJ+)
and :func:`execute_plan_streaming` (pipelined, LIMIT pushdown).

Layering rule (enforced by ``lint/physical-internals``): code outside
``repro.query`` must not import from this package — the supported entry
points are :func:`repro.query.execute_plan`,
:func:`repro.query.execute_plan_streaming` and
:class:`repro.GraphEngine`.
"""

from .cache import DEFAULT_CACHE_BYTES, CenterCache
from .context import (
    DEFAULT_BATCH_SIZE,
    CacheStats,
    ExecutionContext,
    OperatorMetrics,
    RowLayout,
)
from .drivers import (
    QueryResult,
    RunMetrics,
    StreamingResult,
    execute_plan,
    execute_plan_streaming,
)
from .parallel import WorkerPool, fork_available
from .operators import (
    FetchOp,
    PhysicalOperator,
    ProjectOp,
    SeedJoinOp,
    SeedScanOp,
    SelectionOp,
    SharedFilterOp,
    build_pipeline,
)
from .multiway import MultiwayIntersectOp, MultiwaySeedOp

__all__ = [
    "CacheStats",
    "CenterCache",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CACHE_BYTES",
    "ExecutionContext",
    "WorkerPool",
    "fork_available",
    "OperatorMetrics",
    "RowLayout",
    "QueryResult",
    "RunMetrics",
    "StreamingResult",
    "execute_plan",
    "execute_plan_streaming",
    "FetchOp",
    "MultiwayIntersectOp",
    "MultiwaySeedOp",
    "PhysicalOperator",
    "ProjectOp",
    "SeedJoinOp",
    "SeedScanOp",
    "SelectionOp",
    "SharedFilterOp",
    "build_pipeline",
]
