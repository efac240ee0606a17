"""GraphEngine — the library's top-level public API.

Typical use::

    from repro import GraphEngine, parse_pattern

    engine = GraphEngine(graph)                  # builds codes + indexes
    result = engine.match("A -> C, B -> C, C -> D, D -> E")
    for row in result.rows:
        print(dict(zip(result.columns, row)))

``optimizer`` selects the paper's two approaches (and two extensions):

* ``"dps"`` (default) — DP interleaving R-joins with R-semijoins (§4.2);
* ``"dp"`` — R-join-only dynamic programming (§4.1);
* ``"greedy"`` — locally cheapest move, as a non-paper control;
* ``"wcoj"`` — worst-case-optimal multiway plan for cyclic join graphs
  (variable elimination + k-way intersection); acyclic patterns fall
  back to DPS unchanged;
* ``"auto"`` — route on join-graph shape: cyclic → wcoj, else dps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

from ..db.database import GraphDatabase
from ..graph.digraph import DiGraph
from ..labeling.twohop import TwoHopLabeling
from ..storage.buffer import DEFAULT_BUFFER_BYTES
from .costmodel import CostModel, CostParams
from .physical.cache import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_CACHE_SHARDS,
    CenterCache,
)
from .physical.drivers import (
    QueryResult,
    StreamingResult,
    execute_plan_streaming,
)
from .optimizer_dp import OptimizedPlan, optimize_dp, optimize_greedy
from .optimizer_dps import optimize_dps
from .optimizer_wcoj import optimize_auto, optimize_wcoj
from .parser import parse_pattern
from .pattern import GraphPattern

_OPTIMIZERS = {
    "dp": optimize_dp,
    "dps": optimize_dps,
    "greedy": optimize_greedy,
    "wcoj": optimize_wcoj,
    "auto": optimize_auto,
}

PatternLike = Union[str, GraphPattern]

#: guards lazy creation of per-engine locks: engines built through
#: ``__new__`` + attribute assignment (``from_database``, older callers)
#: have no ``__init__``-installed lock, so the first concurrent accessor
#: must not race the lock's own construction
_ENGINE_LOCK_GUARD = threading.Lock()


class GraphEngine:
    """Graph pattern matching over one data graph.

    Building the engine computes the 2-hop labeling, loads the base
    tables, and constructs the cluster-based R-join index and W-table —
    the offline phase of the paper.  :meth:`match` then answers patterns
    online via optimized R-join/R-semijoin plans.
    """

    def __init__(
        self,
        graph: DiGraph,
        labeling: Optional[TwoHopLabeling] = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        cost_params: Optional[CostParams] = None,
        code_cache_enabled: bool = True,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        batch_size: Optional[int] = None,
        cache_shards: int = DEFAULT_CACHE_SHARDS,
    ) -> None:
        self.db = GraphDatabase(
            graph,
            labeling=labeling,
            buffer_bytes=buffer_bytes,
            code_cache_enabled=code_cache_enabled,
        )
        self.cost_params = cost_params or CostParams()
        # cross-query LRU of centers/subclusters; cache_bytes <= 0
        # keeps the object (counters still track misses) but stores
        # nothing.  cache_shards stripes the LRU into independently
        # locked shards so the service's concurrent queries contend per
        # stripe, not on one cache-wide lock.
        self._center_cache = CenterCache(
            capacity_bytes=cache_bytes, shards=cache_shards
        )
        #: default block size for :meth:`match`/:meth:`match_iter`;
        #: ``None`` keeps the scalar tuple-at-a-time oracle
        self.batch_size = batch_size

    @classmethod
    def from_database(
        cls,
        db: GraphDatabase,
        cost_params: Optional[CostParams] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        batch_size: Optional[int] = None,
        cache_shards: int = DEFAULT_CACHE_SHARDS,
    ) -> "GraphEngine":
        """Wrap an existing (e.g. reloaded) database without rebuilding it.

        Pairs with :func:`repro.db.persist.load_database` so a persisted
        offline phase can serve queries without recomputing anything.
        """
        engine = cls.__new__(cls)
        engine.db = db
        engine.cost_params = cost_params or CostParams()
        engine._center_cache = CenterCache(
            capacity_bytes=cache_bytes, shards=cache_shards
        )
        engine.batch_size = batch_size
        return engine

    @classmethod
    def from_snapshot(
        cls, path: str, use_views: Optional[bool] = None, **kwargs
    ) -> "GraphEngine":
        """Open a binary snapshot file and serve queries from it.

        The database constructs around the mmap-backed snapshot with no
        index rebuild (:meth:`GraphDatabase.from_snapshot`); keyword
        arguments are those of :meth:`from_database`.  ``use_views``
        selects the mmap-native read path (default: on when the file
        layout supports it) — see :meth:`GraphDatabase.from_snapshot`.
        The engine starts with a fresh :class:`CenterCache`, keyed on the
        new database's ``index_generation`` — nothing can leak from
        whatever engine wrote the snapshot.
        """
        from ..db.persist import load_database
        from ..storage.snapshot import SnapshotError, is_snapshot

        if not is_snapshot(path):
            raise SnapshotError(f"{path!r} is not a binary snapshot")
        return cls.from_database(
            load_database(path, use_views=use_views), **kwargs
        )

    #: class-level fallbacks so hand-wrapped engines (``__new__`` + attribute
    #: assignment, as older callers do) default to the scalar path
    batch_size: Optional[int] = None

    @property
    def center_cache(self) -> CenterCache:
        """The engine-owned cross-query :class:`CenterCache` (lazy)."""
        cache = getattr(self, "_center_cache", None)
        if cache is None:
            cache = self._center_cache = CenterCache(
                shards=DEFAULT_CACHE_SHARDS
            )
        return cache

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(pattern: PatternLike) -> GraphPattern:
        if isinstance(pattern, GraphPattern):
            return pattern
        return parse_pattern(pattern)

    #: plans are deterministic per (pattern, optimizer, catalog
    #: generation, execution settings), so repeated queries skip the
    #: optimizer entirely
    PLAN_CACHE_SIZE = 256

    def _plan_guard(self) -> threading.Lock:
        """The plan-cache mutation lock (created lazily, race-free)."""
        guard: Optional[threading.Lock] = getattr(self, "_plan_cache_lock", None)
        if guard is None:
            with _ENGINE_LOCK_GUARD:
                guard = getattr(self, "_plan_cache_lock", None)
                if guard is None:
                    guard = self._plan_cache_lock = threading.Lock()
        return guard

    def _execution_settings_key(
        self, batch_size: Optional[int] = None
    ) -> Tuple[bool, bool]:
        """Fingerprint of the execution settings a plan will run under:
        (batched, mmap-native).

        Plans are logical today — no current optimizer output depends on
        the substrate — but the cache key carries this fingerprint anyway
        so mixed-mode service traffic (scalar and batched queries
        interleaved on one shared engine) can never be served a plan
        memoized under different execution settings should an optimizer
        ever specialize for one.  A per-query ``batch_size`` wins over
        the engine default, exactly as it does at execution time.
        """
        effective_batch = self.batch_size if batch_size is None else batch_size
        batched = bool(effective_batch is not None and effective_batch > 1)
        return (
            batched,
            batched and bool(getattr(self.db, "mmap_views", False)),
        )

    def plan(
        self,
        pattern: PatternLike,
        optimizer: str = "dps",
        batch_size: Optional[int] = None,
    ) -> OptimizedPlan:
        """Optimize a pattern without executing it (memoized, LRU).

        The cache key is (pattern, optimizer, index generation,
        execution-settings fingerprint): an index rebuild — which changes
        the catalog the cost model priced against — or a different
        batch/mmap-native configuration can never be served a plan
        memoized under the old settings.  Cache reads and writes are
        lock-guarded so concurrent service queries sharing one engine
        keep the LRU structure consistent; two racers optimizing the same
        key both store the identical deterministic plan.
        """
        parsed = self._coerce(pattern)
        self._check_labels(parsed)
        try:
            optimize = _OPTIMIZERS[optimizer]
        except KeyError:
            raise ValueError(
                f"unknown optimizer {optimizer!r}; choose from {sorted(_OPTIMIZERS)}"
            ) from None
        key = (
            str(parsed),
            optimizer,
            getattr(self.db, "index_generation", 0),
            self._execution_settings_key(batch_size),
        )
        with self._plan_guard():
            cache: Optional[OrderedDict[Tuple, OptimizedPlan]]
            cache = getattr(self, "_plan_cache", None)
            if not isinstance(cache, OrderedDict):
                # tolerate a plain dict planted by tests/older callers
                cache = self._plan_cache = OrderedDict(cache or {})
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)  # LRU: a hit makes the entry youngest
                return cached
        model = CostModel(self.db.catalog, parsed, self.cost_params)
        optimized = optimize(parsed, model)
        with self._plan_guard():
            cache = self._plan_cache
            while len(cache) >= self.PLAN_CACHE_SIZE:
                cache.popitem(last=False)  # evict the least recently used plan
            cache[key] = optimized
        return optimized

    def match(
        self,
        pattern: PatternLike,
        optimizer: str = "dps",
        reset_counters: bool = True,
        row_limit: Optional[int] = None,
        verify: bool = False,
        batch_size: Optional[int] = None,
    ) -> QueryResult:
        """Optimize and execute a pattern; returns matches + metrics.

        The result is :meth:`match_iter`'s stream drained: no temporal
        table enters the simulated disk, and the metrics' I/O covers the
        base-table and index pages the query read.  Rows, columns and
        per-operator counters are identical to the paper's materializing
        HPSJ+ driver, :func:`~repro.query.execute_plan`, which the figure
        benchmarks call explicitly on ``engine.plan(...).plan`` to charge
        temporal-table I/O.

        ``reset_counters`` cold-starts the I/O counters and the working
        cache before running (per-query accounting, as the paper measures
        query by query).  ``row_limit`` caps every intermediate result and
        raises :class:`~repro.query.algebra.RowLimitExceeded` beyond it.
        ``verify`` statically checks the optimized plan against this
        database (:func:`repro.analysis.check_plan`) before executing and
        raises :class:`repro.analysis.PlanVerificationError` on violations.
        ``batch_size`` overrides the engine default for this query: a
        value > 1 runs the vectorized Filter/Fetch substrate (results
        identical to scalar), ``0`` forces the scalar path, ``None``
        inherits the engine's ``batch_size``.
        """
        optimized = self.plan(pattern, optimizer=optimizer, batch_size=batch_size)
        if reset_counters:
            self.db.reset_counters()
        stream = self._stream(
            optimized, row_limit=row_limit, verify=verify, batch_size=batch_size,
        )
        rows = list(stream)
        return QueryResult(
            columns=stream.columns, rows=rows, plan=optimized.plan,
            metrics=stream.metrics,
        )

    def match_iter(
        self,
        pattern: PatternLike,
        optimizer: str = "dps",
        limit: Optional[int] = None,
        row_limit: Optional[int] = None,
        verify: bool = False,
        batch_size: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> StreamingResult:
        """Stream matches lazily through the pipelined executor.

        No temporal tables are materialized; with ``limit`` the upstream
        operators stop as soon as enough rows exist — the cheap way to
        answer "give me a few examples" or EXISTS-style questions over
        patterns whose full result would be huge.  ``row_limit`` and
        ``verify`` behave exactly as in :meth:`match`; the returned
        :class:`~repro.query.StreamingResult` carries a ``metrics``
        attribute with the same per-operator counters as a full run.
        ``batch_size`` behaves exactly as in :meth:`match`.  ``timeout``
        is a per-query deadline in seconds: an expired deadline stops the
        stream cooperatively (between rows) and flags the run's metrics
        ``truncated`` with ``stop_reason="timeout"`` — the query service
        rides this for its admission-to-completion deadlines.
        """
        optimized = self.plan(pattern, optimizer=optimizer, batch_size=batch_size)
        return self._stream(
            optimized, limit=limit, row_limit=row_limit, verify=verify,
            batch_size=batch_size, timeout=timeout,
        )

    def _stream(
        self,
        optimized: OptimizedPlan,
        limit: Optional[int] = None,
        row_limit: Optional[int] = None,
        verify: bool = False,
        batch_size: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> StreamingResult:
        """Run *optimized* through the streaming driver under the
        engine's defaults and its CenterCache."""
        effective = self.batch_size if batch_size is None else batch_size
        return execute_plan_streaming(
            self.db, optimized.plan, limit=limit, row_limit=row_limit,
            verify=verify, batch_size=effective,
            center_cache=self.center_cache, timeout=timeout,
        )

    def explain(self, pattern: PatternLike, optimizer: str = "dps") -> str:
        """The chosen plan as text, with its cost/cardinality estimates."""
        optimized = self.plan(pattern, optimizer=optimizer)
        header = (
            f"-- optimizer={optimizer} est_cost={optimized.estimated_cost:.1f} "
            f"est_rows={optimized.estimated_rows:.1f}"
        )
        return header + "\n" + optimized.plan.describe()

    # ------------------------------------------------------------------
    def _check_labels(self, pattern: GraphPattern) -> None:
        known = set(self.db.labels())
        for var in pattern.variables:
            label = pattern.label(var)
            if label not in known:
                raise KeyError(
                    f"pattern variable {var!r} uses label {label!r} which has "
                    f"no base table; known labels: {sorted(known)}"
                )

    def stats_summary(self) -> Dict[str, float]:
        """Offline-structure sizes: the Table 2 row for this dataset."""
        labeling = self.db.labeling
        return {
            "nodes": self.db.graph.node_count,
            "edges": self.db.graph.edge_count,
            "cover_size": labeling.cover_size(),
            "cover_ratio": labeling.average_code_size(),
            "centers": self.db.join_index.center_count,
        }
