"""The graph database GDB: base tables + R-join index + catalog.

Paper Section 3: "Based on the 2-hop reachability labeling, we store graph
G_D into a database, G_DB, by taking a node-oriented representation.
There are |Σ| tables for G_D.  A table T_X, for a label X ∈ Σ, has three
columns named X, X_in and X_out. ... We assume that the X column is the
primary key of the table."  The in/out columns store the *compact* codes
(the node itself removed, per Example 3.1); :meth:`out_code`/
:meth:`in_code` re-add it.

``getCenters(x, X, Y) = out(x) ∩ W(X, Y)`` (Eq. 6) "needs to access the
base table T_X using the primary index.  We use a working cache to cache
those pairs of (x_i, out(x_i)) ... to reduce the access cost for later
reuse" — implemented by :class:`CodeCache`, which can be disabled for the
ablation benchmarks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..graph.digraph import DiGraph
from ..labeling.twohop import TwoHopLabeling, build_two_hop
from ..storage.buffer import DEFAULT_BUFFER_BYTES, BufferPool
from ..storage.pages import DEFAULT_PAGE_SIZE, DiskManager
from ..storage.stats import IOStats
from ..storage.table import Table
from .catalog import Catalog, PairStats
from .join_index import ClusterRJoinIndex, SnapshotRJoinIndex


@dataclass
class CodeCache:
    """Working cache for (node, in/out graph code) pairs.

    Unbounded by default (the paper does not bound it either); ``enabled``
    and the hit/miss counters exist for the working-cache ablation.
    """

    enabled: bool = True
    hits: int = 0
    misses: int = 0
    _store: Dict[Tuple[int, str], FrozenSet[int]] = field(default_factory=dict)

    def get(self, node: int, side: str) -> Optional[FrozenSet[int]]:
        if not self.enabled:
            self.misses += 1
            return None
        code = self._store.get((node, side))
        if code is None:
            self.misses += 1
        else:
            self.hits += 1
        return code

    def put(self, node: int, side: str, code: FrozenSet[int]) -> None:
        if self.enabled:
            self._store[(node, side)] = code

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0


class GraphDatabase:
    """A data graph stored as per-label base tables with graph codes.

    Parameters
    ----------
    graph:
        The data graph (it is retained only for labels/extents; queries
        never traverse it).
    labeling:
        An optional precomputed 2-hop labeling (otherwise built here).
    buffer_bytes / page_size:
        Storage-engine configuration; the paper's setup is a 1 MiB buffer.
    code_cache_enabled:
        Toggle the getCenters working cache (ablation hook).
    """

    def __init__(
        self,
        graph: DiGraph,
        labeling: Optional[TwoHopLabeling] = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        page_size: int = DEFAULT_PAGE_SIZE,
        code_cache_enabled: bool = True,
    ) -> None:
        self.graph = graph
        self.pool = BufferPool(
            DiskManager(page_size=page_size),
            capacity_bytes=buffer_bytes,
        )
        self.labeling = labeling if labeling is not None else build_two_hop(graph)
        if self.labeling.node_count != graph.node_count:
            raise ValueError(
                "labeling covers "
                f"{self.labeling.node_count} nodes but graph has {graph.node_count}"
            )
        self.base_tables: Dict[str, Table] = {}
        self._table_labels: Tuple[str, ...] = tuple(sorted(graph.extents()))
        self._load_base_tables()
        self.join_index = ClusterRJoinIndex(self.pool, graph, self.labeling)
        self.catalog = Catalog(graph, self.labeling)
        self.code_cache = CodeCache(enabled=code_cache_enabled)
        self._node_labels = list(graph.labels())
        #: bumped whenever the join index is (re)built; cross-query
        #: caches (the engine's CenterCache) key their validity on it
        self.index_generation = 0
        #: True when the read path may address zero-copy snapshot views
        self.mmap_views = False
        self._snapshot = None
        self._snapshot_config: Optional[Tuple[int, int, bool, bool]] = None
        self._table_lock = threading.Lock()
        self.pool.flush_all()

    @property
    def stats(self) -> IOStats:
        """The I/O recorder charges resolve to — the buffer pool's, which
        honours the per-thread :func:`~repro.storage.stats.use_stats`
        override so concurrent queries get exact attribution."""
        return self.pool.stats

    # a live database is shipped whole to process-pool workers; locks do
    # not pickle, so the worker re-creates its own on arrival
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_table_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._table_lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        snapshot,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        page_size: int = DEFAULT_PAGE_SIZE,
        code_cache_enabled: bool = True,
        use_views: Optional[bool] = None,
    ) -> "GraphDatabase":
        """Construct a database that serves from a binary snapshot.

        Nothing expensive is rebuilt: codes come from the labeling's
        array source (lazy delta decodes of the mapping), the R-join
        index and W-table are a :class:`SnapshotRJoinIndex` over the
        same mapping, the catalog is rehydrated from the stored
        statistics, and base tables materialize per label on first
        access.  Only the graph itself (O(V+E), needed for labels and
        extents everywhere) is reconstructed eagerly.

        ``use_views`` controls the mmap-native read path (zero-copy
        slices straight out of the mapping): ``None`` enables it exactly
        when the file layout supports it (raw-runs snapshots), ``True``
        demands it (raises :class:`ValueError` on a legacy delta file),
        ``False`` forces the tuple-materializing path — the differential
        oracle the mmap-native tests compare against.
        """
        if use_views is None:
            use_views = bool(snapshot.supports_views)
        elif use_views and not snapshot.supports_views:
            raise ValueError(
                f"snapshot {snapshot.path!r} is delta-encoded (legacy "
                "layout) and cannot serve zero-copy views; rewrite it or "
                "pass use_views=False"
            )
        db = cls.__new__(cls)
        db.graph = snapshot.build_graph()
        db.pool = BufferPool(
            DiskManager(page_size=page_size),
            capacity_bytes=buffer_bytes,
        )
        db.labeling = TwoHopLabeling.from_array_source(
            snapshot.node_count,
            snapshot.in_code_array,
            snapshot.out_code_array,
            in_view_fetch=snapshot.in_code_view if use_views else None,
            out_view_fetch=snapshot.out_code_view if use_views else None,
        )
        db.base_tables = {}
        db._table_labels = tuple(snapshot.label_names)
        db.join_index = SnapshotRJoinIndex(snapshot)
        db.catalog = Catalog.from_stats(
            snapshot.extent_sizes(),
            {
                pair: PairStats(*stats)
                for pair, stats in snapshot.catalog_pairs().items()
            },
        )
        db.code_cache = CodeCache(enabled=code_cache_enabled)
        db._node_labels = list(db.graph.labels())
        db.index_generation = 0
        db.mmap_views = use_views
        db._snapshot = snapshot
        db._snapshot_config = (
            buffer_bytes, page_size, code_cache_enabled, use_views
        )
        db._table_lock = threading.Lock()
        return db

    # ------------------------------------------------------------------
    def _load_base_tables(self) -> None:
        for label in self._table_labels:
            self._materialize_table(label)

    def _materialize_table(self, label: str) -> Table:
        nodes = self.graph.extent(label)
        table = Table(
            self.pool,
            name=f"T_{label}",
            columns=(label, f"{label}_in", f"{label}_out"),
            primary_key=label,
        )
        for node in sorted(nodes):
            in_code = self.labeling.in_codes[node]
            out_code = self.labeling.out_codes[node]
            table.insert(
                (
                    node,
                    tuple(sorted(in_code - {node})),
                    tuple(sorted(out_code - {node})),
                )
            )
        self.base_tables[label] = table
        return table

    # ------------------------------------------------------------------
    # public access paths
    # ------------------------------------------------------------------
    def labels(self) -> Tuple[str, ...]:
        return self._table_labels

    def base_table(self, label: str) -> Table:
        """The base table ``T_label``, materializing it on first access.

        Snapshot-loaded databases defer table construction per label —
        most workloads touch a handful of the |Σ| tables, and the seed
        scan is the only operator that needs row storage at all.
        """
        table = self.base_tables.get(label)
        if table is not None:
            return table
        if label not in self._table_labels:
            raise KeyError(
                f"no base table for label {label!r}; labels are {self.labels()}"
            )
        # double-checked: concurrent first touches of the same label must
        # not materialize (and insert pages for) the table twice
        with self._table_lock:
            table = self.base_tables.get(label)
            if table is not None:
                return table
            return self._materialize_table(label)

    def node_label(self, node: int) -> str:
        return self._node_labels[node]

    def out_code(self, node: int) -> FrozenSet[int]:
        """``out(x)`` — fetched via the primary index, with working cache."""
        return self._code(node, "out")

    def in_code(self, node: int) -> FrozenSet[int]:
        """``in(x)`` — fetched via the primary index, with working cache."""
        return self._code(node, "in")

    def _code(self, node: int, side: str) -> FrozenSet[int]:
        cached = self.code_cache.get(node, side)
        if cached is not None:
            return cached
        label = self._node_labels[node]
        row = self.base_table(label).fetch_by_key(node)
        if row is None:
            raise KeyError(f"node {node} not found in base table T_{label}")
        stored = row[2] if side == "out" else row[1]
        code = frozenset(stored) | {node}
        self.code_cache.put(node, side, code)
        return code

    def out_code_array(self, node: int):
        """``out(x)`` as a sorted ``array('q')`` (the batch kernels' view).

        Served from the labeling's lazily-built array cache; the stored
        base-table codes were loaded from the same labeling, so both
        representations are definitionally equal.
        """
        return self.labeling.out_code_array(node)

    def in_code_array(self, node: int):
        """``in(x)`` as a sorted ``array('q')`` (the batch kernels' view)."""
        return self.labeling.in_code_array(node)

    def out_code_view(self, node: int):
        """``out(x)`` as a zero-copy snapshot slice when ``mmap_views``
        (else the memoized array — identical values either way)."""
        return self.labeling.out_code_view(node)

    def in_code_view(self, node: int):
        """``in(x)`` view twin of :meth:`out_code_view`."""
        return self.labeling.in_code_view(node)

    def extent_view(self, label: str):
        """All *label*-labeled node ids, sorted, as a zero-copy snapshot
        slice — the mmap-native seed scan's column (skips base tables).

        Only valid when ``mmap_views`` is True; the label-id space is the
        snapshot's sorted label dictionary, which ``_table_labels``
        mirrors on a snapshot-loaded database.
        """
        if self._snapshot is None:
            raise RuntimeError(
                "extent_view needs a snapshot-backed database"
            )
        return self._snapshot.extent_view(self._table_labels.index(label))

    # ------------------------------------------------------------------
    @property
    def snapshot_handle(self):
        """The backing :class:`~repro.storage.snapshot.Snapshot`, or
        ``None`` for an eagerly-built database."""
        return self._snapshot

    def snapshot_descriptor(self) -> Optional[Tuple]:
        """What a process worker needs to re-open this database by path:
        ``(path, index_generation, buffer_bytes, page_size,
        code_cache_enabled, use_views)`` — or ``None`` when the database
        is not snapshot-backed (or its snapshot has been closed), in
        which case no :class:`~repro.query.physical.parallel.WorkerPool`
        can serve it.
        """
        if self._snapshot is None or self._snapshot.closed:
            return None
        if self._snapshot_config is None:
            return None
        if not isinstance(self.join_index, SnapshotRJoinIndex):
            # rebuild_join_index swapped in a live tree: the file on disk
            # no longer describes this database
            return None
        buffer_bytes, page_size, code_cache_enabled, use_views = (
            self._snapshot_config
        )
        return (
            self._snapshot.path,
            self.index_generation,
            buffer_bytes,
            page_size,
            code_cache_enabled,
            use_views,
        )

    def get_centers(self, node: int, x_label: str, y_label: str) -> FrozenSet[int]:
        """``getCenters(x, X, Y) = out(x) ∩ W(X, Y)`` (Eq. 6)."""
        wxy = self.join_index.centers(x_label, y_label)
        return self.out_code(node) & frozenset(wxy)

    def get_centers_reverse(self, node: int, x_label: str, y_label: str) -> FrozenSet[int]:
        """Mirror of Eq. 6 for the Y side: ``in(y) ∩ W(X, Y)``."""
        wxy = self.join_index.centers(x_label, y_label)
        return self.in_code(node) & frozenset(wxy)

    def reaches(self, u: int, v: int) -> bool:
        """Reachability through stored codes: ``out(u) ∩ in(v) ≠ ∅``."""
        return not self.out_code(u).isdisjoint(self.in_code(v))

    def storage_report(self) -> Dict[str, Dict[str, int]]:
        """Page/row footprint of every stored structure.

        Returns ``{structure: {"rows": ..., "pages": ...}}`` for each base
        table (heap + primary index height folded into "pages" is not
        attempted — index pages are shared in the pool), plus totals for
        the whole simulated disk.  Useful for sizing buffer budgets and
        for the Table 2-style reporting the CLI's ``stats`` command does.
        """
        for label in self._table_labels:  # a report covers *every* table
            self.base_table(label)
        report: Dict[str, Dict[str, int]] = {}
        for label, table in sorted(self.base_tables.items()):
            report[f"T_{label}"] = {
                "rows": len(table),
                "pages": table.page_count,
            }
        report["__disk__"] = {
            "rows": sum(len(t) for t in self.base_tables.values()),
            "pages": self.pool.disk.page_count,
        }
        return report

    # ------------------------------------------------------------------
    def rebuild_join_index(self) -> None:
        """Rebuild the cluster index, W-table and catalog from the current
        graph + labeling, bumping ``index_generation``.

        The generation bump is the invalidation signal for cross-query
        caches: anything keyed on centers or subclusters (the engine's
        CenterCache) must drop its entries when this runs.

        On a snapshot-loaded database this converts the lazy
        :class:`SnapshotRJoinIndex` into a live tree-backed index (the
        snapshot file cannot reflect label mutations), which is exactly
        what the dynamic-maintenance layer needs after edits.
        """
        self.join_index = ClusterRJoinIndex(self.pool, self.graph, self.labeling)
        self.catalog = Catalog(self.graph, self.labeling)
        self.index_generation += 1
        # the tree-backed index has no views; the snapshot file no longer
        # describes the live index either, so workers must stop re-opening
        # it by path (snapshot_descriptor's generation check catches this)
        self.mmap_views = False
        self.pool.flush_all()

    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Clear I/O stats and the working cache (cold-start a query)."""
        self.stats.reset()
        self.code_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphDatabase(labels={len(self._table_labels)}, "
            f"nodes={self.graph.node_count}, "
            f"centers={self.join_index.center_count})"
        )
