"""The Volcano-style physical operators — Algorithms 1 and 2, once.

Every operator is a class with the classic ``open()/rows()/close()``
lifecycle over a shared :class:`~repro.query.physical.context.ExecutionContext`:

* :class:`SeedScanOp` — materialize one variable column from its base
  table extent (single-variable patterns).
* :class:`SeedJoinOp` — HPSJ, Algorithm 1: R-join two *base* tables
  entirely from the cluster-based R-join index (per center
  ``w ∈ W(X,Y)``, the Cartesian product ``getF(w,X) × getT(w,Y)``,
  unioned).  "There is no need to access base tables."
* :class:`SharedFilterOp` — the Filter procedure of Algorithm 2 = an
  R-semijoin: for each temporal tuple, ``X_i = getCenters(x_i, X, Y)``
  (Eq. 6); tuples with ``X_i = ∅`` are pruned, survivors carry their
  center sets forward.  One scan serves several conditions on the same
  scanned variable (Remark 3.1), and repeated node values hit a
  per-operator memo instead of re-probing and re-sorting.
* :class:`FetchOp` — the Fetch procedure: per surviving tuple and center,
  Cartesian-product with the center's labeled T-subcluster (or
  F-subcluster for the mirrored direction), deduplicating per tuple since
  several centers can witness the same partner node.
* :class:`SelectionOp` — the self R-join (Eq. 5): test
  ``out(x) ∩ in(y) ≠ ∅`` between two already-bound columns.
* :class:`ProjectOp` — project the pattern's variables in declaration
  order off the final intermediate.

The two drivers in :mod:`repro.query.physical.drivers` differ only in
how they move rows between these operators: the materializing driver
drains each ``rows()`` into a temporal table, the streaming driver chains
the generators.  Deduplication sets, the Remark 3.1 shared scan, the
per-center subcluster cache and all metric counting live here and
nowhere else, so the two execution modes cannot drift apart.

When the context reports ``mmap_native`` (batched execution over a
view-capable snapshot-backed database), every operator routes its reads
through the snapshot's blessed zero-copy view API instead of
materializing codes, W-entries and subclusters: the seed scan iterates
the per-label node column, HPSJ and Fetch slice subcluster runs, Filter
gallops code slices into W-slices, Selection intersects code slices
directly.  This changes only the *representation* handed to the kernels
— emitted rows and every per-op counter are byte-identical to the
materializing path, which the mmap-native differential suite pins.
Views are consumed and dropped within the call; only materialized
tuples enter any memo or cache, so nothing here can pin the mapping
past ``Snapshot.close()``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..algebra import (
    FetchStep,
    FilterKey,
    FilterStep,
    MultiwaySeed,
    MultiwayStep,
    Plan,
    RowLimitExceeded,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from ...storage.snapshot import SIDE_F, SIDE_T
from ..pattern import Condition
from . import kernels
from .context import ExecutionContext, OperatorMetrics, RowLayout

Row = Tuple[int, ...]


class PhysicalOperator:
    """Base class: lifecycle, row accounting, and the row-limit guard.

    Subclasses implement :meth:`_produce`; the base wraps it so that

    * ``open()`` resets all per-execution state (dedup sets, memos and
      the metrics counters), making an operator instance reusable;
    * every emitted row is counted into ``metrics.rows_out`` and checked
      against the context's ``row_limit`` budget — the one enforcement
      point for both drivers;
    * ``close()`` releases per-execution state even when the consumer
      abandons the iterator early (LIMIT pushdown closes generators).
    """

    def __init__(self, ctx: ExecutionContext, name: str, layout: RowLayout):
        self.ctx = ctx
        self.name = name
        #: schema of the rows this operator emits
        self.layout = layout
        self.metrics = OperatorMetrics(operator=name)

    # -- lifecycle -----------------------------------------------------
    def open(self) -> None:
        """Reset per-execution state; called when ``rows()`` starts."""
        self.metrics.rows_in = 0
        self.metrics.rows_out = 0
        self.metrics.centers_probed = 0
        self.metrics.nodes_fetched = 0

    def rows(self, source: Optional[Iterable[Row]] = None) -> Iterator[Row]:
        """The operator's output stream (opens on first pull)."""
        self.open()
        limit = self.ctx.row_limit
        metrics = self.metrics
        try:
            for row in self._produce(source):
                metrics.rows_out += 1
                if limit is not None and metrics.rows_out > limit:
                    raise RowLimitExceeded(
                        f"operator {self.name} exceeded {limit} rows"
                    )
                yield row
        finally:
            self.close()

    def close(self) -> None:
        """Release per-execution state; called when the stream ends."""

    # -- helpers -------------------------------------------------------
    def _pull(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        """Iterate the child's rows, counting them into ``rows_in``."""
        if source is None:
            raise TypeError(f"operator {self.name} requires an input stream")
        metrics = self.metrics
        for row in source:
            metrics.rows_in += 1
            yield row

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------
class SeedScanOp(PhysicalOperator):
    """Scan one base table to seed a single-variable intermediate.

    Mmap-native mode reads the snapshot's per-label node column instead
    — same sorted node ids the primary-key scan yields, without ever
    materializing the base table's rows (the single largest allocation
    of a scan-seeded query).
    """

    def __init__(self, ctx: ExecutionContext, var: str):
        super().__init__(ctx, f"scan({var})", RowLayout((var,)))
        self.var = var
        self.label = ctx.pattern.label(var)

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        metrics = self.metrics
        if self.ctx.mmap_native:
            for node in self.ctx.db.extent_view(self.label):
                metrics.rows_in += 1
                yield (node,)
            return
        for row in self.ctx.db.base_table(self.label).scan():
            metrics.rows_in += 1
            yield (row[0],)


class SeedJoinOp(PhysicalOperator):
    """HPSJ (Algorithm 1): R-join two base tables via the join index.

    ``rows_in`` counts the candidate pairs enumerated from the
    subcluster Cartesian products; ``rows_out`` the deduplicated pairs.
    """

    def __init__(self, ctx: ExecutionContext, condition: Condition):
        src, dst = condition
        super().__init__(ctx, f"hpsj({src}->{dst})", RowLayout(condition))
        self.condition = condition
        self.x_label, self.y_label = ctx.pattern.condition_labels(condition)
        self._seen: set = set()

    def open(self) -> None:
        super().open()
        self._seen = set()

    def close(self) -> None:
        self._seen = set()

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        index = self.ctx.db.join_index
        metrics = self.metrics
        seen = self._seen
        if self.ctx.mmap_native:
            # W(X, Y) as a zero-copy slice — same ids, no decode/memoize;
            # each leaf read is a pair of dicts of zero-copy run slices,
            # consumed immediately below, never retained
            centers: Iterable[int] = index.centers_view(
                self.x_label, self.y_label
            )
            get_ft = index.get_ft_views
        else:
            centers = index.centers(self.x_label, self.y_label)
            get_ft = index.get_ft
        for center in centers:
            metrics.centers_probed += 1
            # one combined probe: both subcluster maps live in the same
            # leaf, so get_f + get_t would descend the tree twice for it
            f_sub, t_sub = get_ft(center)
            f_nodes = f_sub.get(self.x_label, ())
            t_nodes = t_sub.get(self.y_label, ())
            metrics.nodes_fetched += len(f_nodes) + len(t_nodes)
            for x in f_nodes:
                for y in t_nodes:
                    metrics.rows_in += 1
                    pair = (x, y)
                    if pair not in seen:
                        seen.add(pair)
                        yield pair


# ----------------------------------------------------------------------
# HPSJ+ filter / fetch
# ----------------------------------------------------------------------
class SharedFilterOp(PhysicalOperator):
    """R-semijoin(s) in one shared scan (Filter of Algorithm 2).

    All *keys* must scan the same variable with the same code side
    (Remark 3.1); each surviving row gains one centers column per key.  A
    row survives only if *every* key yields a non-empty center set — any
    empty set proves the row can never satisfy that reachability
    condition.  Because the verdict depends only on the scanned node, a
    per-operator memo caches each node's computed center columns (or its
    pruning) so repeated values pay neither the index probes nor the
    per-key sort again.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        input_layout: RowLayout,
        keys: Sequence[FilterKey],
    ):
        keys = tuple(keys)
        scanned_vars = {side.scanned_var(cond) for cond, side in keys}
        if len(scanned_vars) != 1:
            raise ValueError(
                f"shared filter must scan one variable, got {scanned_vars}"
            )
        if len({side for _, side in keys}) != 1:
            raise ValueError(
                "shared filter must use one code side (Remark 3.1 sharing condition)"
            )
        scanned = next(iter(scanned_vars))
        names = ",".join(f"{c[0]}->{c[1]}" for c, _ in keys)
        super().__init__(
            ctx,
            f"filter[{scanned}]({names})",
            RowLayout(input_layout.variables, input_layout.pending + keys),
        )
        self.keys = keys
        self.position = input_layout.var_position(scanned)
        # label pairs are resolved once here, not per row
        self.label_pairs = [
            (ctx.pattern.condition_labels(cond), side) for cond, side in keys
        ]
        self._memo: Dict[int, Optional[Tuple[Tuple[int, ...], ...]]] = {}
        # batch-mode resources, resolved in open(): one (W-array,
        # pair-id, code-array accessor, side) per key
        self._batch_keys: List[tuple] = []

    def open(self) -> None:
        super().open()
        self._memo = {}
        self._batch_keys = []
        if self.ctx.batched:
            db = self.ctx.db
            native = self.ctx.mmap_native
            for (x_label, y_label), side in self.label_pairs:
                if native:
                    # zero-copy W-slice and per-node code slices; the
                    # intersection results entering the memo/cache are
                    # materialized tuples either way
                    w_entry = db.join_index.centers_view(x_label, y_label)
                    code_of = (
                        db.out_code_view if side is Side.OUT else db.in_code_view
                    )
                else:
                    w_entry = db.join_index.centers_array(x_label, y_label)
                    code_of = (
                        db.out_code_array if side is Side.OUT else db.in_code_array
                    )
                self._batch_keys.append(
                    (
                        w_entry,
                        kernels.intern_label_pair(x_label, y_label),
                        code_of,
                        side,
                    )
                )

    def close(self) -> None:
        self._memo = {}
        self._batch_keys = []

    def _centers_for(self, node: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """The row suffix for *node*, or None if any key prunes it."""
        db = self.ctx.db
        center_sets: List[Tuple[int, ...]] = []
        for (x_label, y_label), side in self.label_pairs:
            if side is Side.OUT:
                centers = db.get_centers(node, x_label, y_label)
            else:
                centers = db.get_centers_reverse(node, x_label, y_label)
            if not centers:
                return None
            center_sets.append(tuple(sorted(centers)))
        return tuple(center_sets)

    def _centers_for_batched(self, node: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """Kernel path for one fresh node: gallop each code into W(X, Y).

        Semantics match :meth:`_centers_for` exactly (sorted center
        tuples, None on any empty key) — the codes and W-entries are the
        same sets, only the representation (sorted arrays, interned pair
        ids, cross-query cache) differs.
        """
        cache = self.ctx.center_cache
        center_sets: List[Tuple[int, ...]] = []
        for w_array, pair_id, code_array_of, side in self._batch_keys:
            centers: Optional[Tuple[int, ...]] = None
            if cache is not None:
                centers = cache.get_centers(
                    node, pair_id, side, stats=self.ctx.cache_stats
                )
            if centers is None:
                if w_array:
                    centers = tuple(kernels.intersect(code_array_of(node), w_array))
                else:
                    centers = ()
                if cache is not None:
                    cache.put_centers(
                        node, pair_id, side, centers,
                        stats=self.ctx.cache_stats,
                    )
            if not centers:
                return None
            center_sets.append(centers)
        return tuple(center_sets)

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        if self.ctx.batched:
            yield from self._produce_batched(source)
            return
        memo = self._memo
        position = self.position
        for row in self._pull(source):
            node = row[position]
            if node in memo:
                suffix = memo[node]
            else:
                suffix = memo[node] = self._centers_for(node)
            if suffix is not None:
                yield tuple(row) + suffix

    def _produce_batched(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        """Block-at-a-time Filter: batched getCenters over distinct nodes.

        Rows are emitted in input order, so the output is identical to
        the scalar path's row for row, not just as a set.
        """
        memo = self._memo
        position = self.position
        centers_for = self._centers_for_batched
        for block in kernels.iter_blocks(self._pull(source), self.ctx.batch_size):
            # phase 1: resolve every distinct fresh node of the block
            for node in {row[position] for row in block} - memo.keys():
                memo[node] = centers_for(node)
            # phase 2: emit survivors in input order
            for row in block:
                suffix = memo[row[position]]
                if suffix is not None:
                    yield tuple(row) + suffix


class FetchOp(PhysicalOperator):
    """Fetch of Algorithm 2: materialize the condition's other variable.

    Consumes the pending centers column written by the matching Filter.
    Per row, the new column's values are the union over the row's centers
    of the center's labeled T-subcluster (``Side.OUT``) or F-subcluster
    (``Side.IN``); the union is deduplicated because one partner node may
    be witnessed by several centers.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        input_layout: RowLayout,
        condition: Condition,
        side: Side,
    ):
        src, dst = condition
        key: FilterKey = (condition, side)
        remaining = tuple(k for k in input_layout.pending if k != key)
        super().__init__(
            ctx,
            f"fetch({src}->{dst})[{side.value}]",
            RowLayout(
                input_layout.variables + (side.fetched_var(condition),),
                remaining,
            ),
        )
        self.condition = condition
        self.side = side
        self.centers_position = input_layout.pending_position(key)
        x_label, y_label = ctx.pattern.condition_labels(condition)
        self.fetch_label = y_label if side is Side.OUT else x_label
        # snapshot-side tag of the subcluster run the view path slices:
        # Side.OUT fetches the T-subcluster, Side.IN the F-subcluster
        self.snap_side = SIDE_T if side is Side.OUT else SIDE_F
        # positions of the surviving pending columns in the input rows
        self.keep_positions = [
            input_layout.pending_position(k) for k in remaining
        ]
        self.var_count = len(input_layout.variables)
        # Per-operator memo of subcluster contents: the paper's IO_rji is
        # an *average per retrieved node* precisely because a center's
        # leaf stays pinned while its subcluster is consumed —
        # re-descending the index for every (row, center) pair would
        # overcharge the fetch by the tree height.
        self._subclusters: Dict[int, Tuple[int, ...]] = {}
        # batch mode: the deduplicated Cartesian expansion per distinct
        # centers-tuple, (partners, pre-dedup volume) — many rows share a
        # centers column value, and the scalar path re-deduplicates the
        # same union for each of them
        self._partners_memo: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}

    def open(self) -> None:
        super().open()
        self._subclusters = {}
        self._partners_memo = {}

    def close(self) -> None:
        self._subclusters = {}
        self._partners_memo = {}

    def _subcluster(self, center: int) -> Tuple[int, ...]:
        """One center's labeled subcluster: per-op memo, then the shared
        CenterCache (batch mode), then a single B+-tree probe."""
        partners = self._subclusters.get(center)
        if partners is not None:
            return partners
        shared = self.ctx.center_cache if self.ctx.batched else None
        if shared is not None:
            partners = shared.get_subcluster(
                center, self.fetch_label, self.side, stats=self.ctx.cache_stats
            )
        if partners is None:
            db = self.ctx.db
            if self.side is Side.OUT:
                partners = db.join_index.get_t(center, self.fetch_label)
            else:
                partners = db.join_index.get_f(center, self.fetch_label)
            if shared is not None:
                shared.put_subcluster(
                    center, self.fetch_label, self.side, partners,
                    stats=self.ctx.cache_stats,
                )
        self._subclusters[center] = partners
        return partners

    def _subcluster_view(self, center: int):
        """View twin of :meth:`_subcluster`: a zero-copy run slice.

        No memo and no CenterCache on purpose — the slice is an O(1)
        re-address of the mapping (there is no tree descent to amortize),
        and holding views in a memo or the cross-query cache would pin
        the mapping past ``Snapshot.close()``.  Only materialized tuples
        (the per-centers-set unions in ``_partners_memo``) are cached.
        """
        run = self.ctx.db.join_index.subcluster_view(
            center, self.fetch_label, self.snap_side
        )
        return () if run is None else run

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        if self.ctx.batched:
            yield from self._produce_batched(source)
            return
        metrics = self.metrics
        subcluster = self._subcluster
        for row in self._pull(source):
            base = tuple(row[: self.var_count])
            carried = tuple(row[p] for p in self.keep_positions)
            seen_partners: set = set()
            for center in row[self.centers_position]:
                metrics.centers_probed += 1
                partners = subcluster(center)
                metrics.nodes_fetched += len(partners)
                for partner in partners:
                    if partner not in seen_partners:
                        seen_partners.add(partner)
                        yield base + (partner,) + carried

    def _produce_batched(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        """Block-at-a-time Fetch: one dedup union per distinct centers set.

        The logical counters are charged per row exactly like the scalar
        path (``centers_probed`` per (row, center), ``nodes_fetched`` per
        subcluster node examined) even when the union itself comes from
        the memo — the counters describe Algorithm 2's work, not the
        memoization shortcut.
        """
        metrics = self.metrics
        memo = self._partners_memo
        centers_position = self.centers_position
        subcluster = (
            self._subcluster_view if self.ctx.mmap_native else self._subcluster
        )
        for block in kernels.iter_blocks(self._pull(source), self.ctx.batch_size):
            for row in block:
                centers = row[centers_position]
                entry = memo.get(centers)
                if entry is None:
                    entry = memo[centers] = kernels.gather_union(
                        [subcluster(center) for center in centers]
                    )
                partners, volume = entry
                metrics.centers_probed += len(centers)
                metrics.nodes_fetched += volume
                base = tuple(row[: self.var_count])
                carried = tuple(row[p] for p in self.keep_positions)
                for partner in partners:
                    yield base + (partner,) + carried


class SelectionOp(PhysicalOperator):
    """Self R-join (Eq. 5): keep rows with ``out(x) ∩ in(y) ≠ ∅``.

    Both variables are already bound; the check costs two graph-code
    retrievals per row (the ``2·(IO_B + IO_X)·|T_R|`` term of Section 4),
    amortized by the working cache.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        input_layout: RowLayout,
        condition: Condition,
    ):
        src, dst = condition
        super().__init__(
            ctx,
            f"select({src}->{dst})",
            RowLayout(input_layout.variables, input_layout.pending),
        )
        self.condition = condition
        self.src_position = input_layout.var_position(src)
        self.dst_position = input_layout.var_position(dst)

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        db = self.ctx.db
        src_position = self.src_position
        dst_position = self.dst_position
        if self.ctx.mmap_native:
            # Eq. 5 on zero-copy code slices: non-empty intersection of
            # out(x) and in(y), no frozenset materialization per row
            out_view = db.out_code_view
            in_view = db.in_code_view
            for row in self._pull(source):
                if kernels.intersect(
                    out_view(row[src_position]), in_view(row[dst_position])
                ):
                    yield tuple(row)
            return
        for row in self._pull(source):
            if db.reaches(row[src_position], row[dst_position]):
                yield tuple(row)


class ProjectOp(PhysicalOperator):
    """Project the pattern's variables, in declaration order."""

    def __init__(self, ctx: ExecutionContext, input_layout: RowLayout):
        variables = tuple(ctx.pattern.variables)
        super().__init__(ctx, "project", RowLayout(variables))
        if input_layout.pending:
            raise RuntimeError(
                f"plan finished with unconsumed filters {input_layout.pending}"
            )
        self.positions = [input_layout.var_position(v) for v in variables]

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        positions = self.positions
        for row in self._pull(source):
            yield tuple(row[p] for p in positions)


# ----------------------------------------------------------------------
# plan -> operator pipeline
# ----------------------------------------------------------------------
def build_pipeline(
    ctx: ExecutionContext, plan: Plan
) -> Tuple[List[PhysicalOperator], ProjectOp]:
    """Instantiate one operator per plan step, plus the final projection.

    The returned step operators line up index-for-index with
    ``plan.steps`` (so per-operator metrics report one entry per step);
    the :class:`ProjectOp` is returned separately because it is driver
    plumbing, not a costed plan step.
    """
    # imported here: the multiway module subclasses PhysicalOperator,
    # so the dependency must point from it to this module, not back
    from .multiway import MultiwayIntersectOp, MultiwaySeedOp

    operators: List[PhysicalOperator] = []
    layout: Optional[RowLayout] = None
    for step in plan.steps:
        op: PhysicalOperator
        if isinstance(step, SeedScan):
            op = SeedScanOp(ctx, step.var)
        elif isinstance(step, SeedJoin):
            op = SeedJoinOp(ctx, step.condition)
        elif isinstance(step, MultiwaySeed):
            op = MultiwaySeedOp(ctx, step.var, step.constraints)
        elif isinstance(step, FilterStep):
            op = SharedFilterOp(ctx, layout, step.keys)
        elif isinstance(step, FetchStep):
            op = FetchOp(ctx, layout, step.condition, step.side)
        elif isinstance(step, SelectionStep):
            op = SelectionOp(ctx, layout, step.condition)
        elif isinstance(step, MultiwayStep):
            op = MultiwayIntersectOp(ctx, layout, step.var, step.constraints)
        else:  # pragma: no cover - Plan.validate rejects unknown steps
            raise TypeError(f"unknown plan step {step!r}")
        operators.append(op)
        layout = op.layout
    return operators, ProjectOp(ctx, layout)
