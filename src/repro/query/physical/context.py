"""Execution context shared by every physical operator.

One :class:`ExecutionContext` is built per plan execution and handed to
each operator: it carries the database handle, the row-limit budget that
guards every intermediate, and a factory for temporal-table names.  The
row *layout* (which variable columns a row currently has, plus one
centers column per pending Filter) travels separately as a
:class:`RowLayout`, because it changes operator by operator while the
context does not.

:class:`OperatorMetrics` lives here too — it is the per-operator half of
the run instrumentation, produced identically by both drivers because
the counting happens inside the operators themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ...db.database import GraphDatabase
from ..algebra import FilterKey
from ..pattern import GraphPattern, PatternError
from .cache import CenterCache

_name_counter = itertools.count()

#: default rows-per-block when a caller enables batching without a size
DEFAULT_BATCH_SIZE = 1024


def temp_name(tag: str) -> str:
    """A unique name for one temporal table (materializing driver only)."""
    return f"{tag}#{next(_name_counter)}"


@dataclass
class OperatorMetrics:
    """Per-operator instrumentation.

    Invariants (asserted by the test suite): ``rows_out <= rows_in`` for
    every row-consuming operator (Filter, Selection), and
    ``rows_out <= rows_in`` on seeds too, where ``rows_in`` counts the
    candidate rows examined (base-table rows for a scan, candidate
    center-pairs for HPSJ) before deduplication or pruning.
    """

    operator: str
    rows_in: int = 0
    rows_out: int = 0
    centers_probed: int = 0
    nodes_fetched: int = 0

    @property
    def pruned(self) -> int:
        return max(0, self.rows_in - self.rows_out)


class RowLayout:
    """Schema of the rows flowing between two operators.

    Mirrors :class:`~repro.query.algebra.TemporalTable`'s column layout
    (variables first, then one centers column per pending filter) without
    any storage behind it — the streaming driver uses it bare, the
    materializing driver turns it into a real temporal table.
    """

    __slots__ = ("variables", "pending")

    def __init__(
        self, variables: Sequence[str], pending: Sequence[FilterKey] = ()
    ) -> None:
        self.variables: Tuple[str, ...] = tuple(variables)
        self.pending: Tuple[FilterKey, ...] = tuple(pending)

    def var_position(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise PatternError(
                f"variable {var!r} not bound; bound: {self.variables}"
            ) from None

    def pending_position(self, key: FilterKey) -> int:
        try:
            return len(self.variables) + self.pending.index(key)
        except ValueError:
            raise PatternError(f"no pending centers for filter {key}") from None


@dataclass
class CacheStats:
    """Per-run CenterCache activity (deltas over one plan execution)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ExecutionContext:
    """Everything the operators need from the outside world.

    ``row_limit`` is the execution guard, not a LIMIT clause: any
    operator whose output outgrows it raises
    :class:`~repro.query.algebra.RowLimitExceeded`, under either driver.

    ``batch_size`` selects the vectorized substrate: ``None`` (default)
    runs the scalar tuple-at-a-time oracle; a value > 1 makes the Filter
    and Fetch operators process rows in blocks of that size through the
    sorted-array kernels (:mod:`repro.query.physical.kernels`).
    ``center_cache`` is the engine-owned cross-query LRU consulted by the
    batch kernels for center sets and subclusters.

    ``sanitize`` arms the runtime tripwires of
    :mod:`repro.analysis.sanitizer` (per-read cache-generation
    assertions, the striped cache's shard audit); it defaults
    to the ``REPRO_SANITIZE`` environment switch, re-read on every
    context construction.

    Construction is also the **cache-sync choke point**: every context
    re-syncs its ``center_cache`` against ``db.index_generation``, so no
    driver — current or future — can read entries that predate an index
    rebuild.  The deep checker's ``contract/sync-choke-point`` rule
    pins this block in place.
    """

    db: GraphDatabase
    pattern: GraphPattern
    row_limit: Optional[int] = None
    batch_size: Optional[int] = None
    center_cache: Optional[CenterCache] = None
    sanitize: bool = False
    #: this run's private CenterCache recorder — operators pass it into
    #: every shared-cache get, so concurrent queries over one engine get
    #: exact per-query hit/miss attribution (no global-counter deltas)
    cache_stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if not self.sanitize:
            # imported lazily: the analysis layer depends on the query
            # layer, not the other way around
            from ...analysis.sanitizer import sanitize_enabled

            self.sanitize = sanitize_enabled()
        if self.center_cache is not None:
            self.center_cache.sync(self.db.index_generation)
            if self.sanitize:
                from ...analysis.sanitizer import verify_shard_isolation

                self.center_cache.bind_sanitizer(self.db)
                # audit the striped tier at the same choke point: any
                # cross-shard write or ledger drift left by an earlier
                # (possibly concurrent) query trips before this run reads
                verify_shard_isolation(self.center_cache, where="cache sync")

    @property
    def batched(self) -> bool:
        return self.batch_size is not None and self.batch_size > 1

    @property
    def mmap_native(self) -> bool:
        """True when the batch operators should address zero-copy
        snapshot slices instead of materializing arrays and tuples.

        Requires both the vectorized substrate (the scalar oracle always
        runs on materialized codes) and a view-capable snapshot-backed
        database (``db.mmap_views``).  Every result and per-op counter is
        byte-identical either way — this picks a representation, never a
        semantics.
        """
        return self.batched and getattr(self.db, "mmap_views", False)
