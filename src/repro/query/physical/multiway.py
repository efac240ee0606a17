"""Generic-join physical operators for cyclic patterns (multiway R-joins).

Left-deep plans eliminate one *condition* per step and must materialize
every binary R-join's intermediate; on cyclic patterns (triangles,
diamonds, cliques) those intermediates can be asymptotically larger than
the final output.  The worst-case-optimal alternative eliminates one
*variable* per step: for each candidate row, the new variable's value
set is the **intersection of its extension sets across every condition
touching it** — computed with the same sorted-array merge/gallop kernels
the batch path already uses, and never materializing a binary join.

Two operators implement one variable-elimination order:

* :class:`MultiwaySeedOp` — binds the first variable.  Its domain is the
  intersection, over the seed's incident conditions, of each condition's
  W-projection onto the variable (the union over ``w ∈ W(X, Y)`` of the
  center's labeled subcluster).  This is sound pruning — every value
  that can appear in any result survives — but enforces nothing by
  itself; each condition is *enforced* exactly once, at the step that
  eliminates its later endpoint.
* :class:`MultiwayIntersectOp` — binds one more variable ``v``.  Per
  input row, for every condition between ``v`` and an already-bound
  variable, the bound endpoint's centers (Eq. 6, ``code ∩ W``) are
  expanded to the union of their labeled subclusters (Eqs. 7-9); the
  row's extensions are the k-way intersection of those per-condition
  sets (:func:`~repro.query.physical.kernels.intersect_many` — the
  leapfrog core, folding smallest-first).

Both operators follow the established three-substrate discipline: the
scalar path probes the B+-tree index per center, the batched path runs
the sorted-array kernels with the shared
:class:`~repro.query.physical.cache.CenterCache`, and the mmap-native
path slices zero-copy W/code/subcluster views out of the snapshot —
emitted rows and every logical counter are byte-identical across the
three, which the wcoj differential suite pins.

Counter semantics (matching Filter/Fetch conventions):

* ``centers_probed`` — one per (row, condition, center) whose subcluster
  is expanded, memo hits included;
* ``nodes_fetched`` — pre-dedup subcluster volume examined, ditto;
* ``rows_in`` — candidate values examined before pruning: for the seed,
  the smallest per-condition projection (or the base extent when the
  seed has no constraints); for an intersect step, the input rows;
* ``rows_out`` — emitted rows, so ``rows_out`` summed *before* the
  projection is exactly the "intermediate rows" quantity the bench
  gates compare against left-deep plans.

Per-row extension sets are memoized on the tuple of scanned values (many
rows share bound prefixes on cyclic cores); counters are charged per row
even on memo hits, so memo state can never change the reported work —
the same replay discipline the batched Fetch uses.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...storage.snapshot import SIDE_F, SIDE_T
from ..algebra import FilterKey, Side
from . import kernels
from .context import ExecutionContext, RowLayout
from .operators import PhysicalOperator, Row

#: per-constraint resources resolved at open():
#: (x_label, y_label, side, fetch_label, snap_side, scan_position | None)
_ConstraintPlan = Tuple[str, str, Side, str, int, Optional[int]]


def _describe(constraints: Sequence[FilterKey]) -> str:
    return ",".join(f"{c[0]}->{c[1]}" for c, _ in constraints)


class _MultiwayBase(PhysicalOperator):
    """Shared substrate plumbing for the two multiway operators."""

    def __init__(
        self,
        ctx: ExecutionContext,
        name: str,
        layout: RowLayout,
        var: str,
        constraints: Tuple[FilterKey, ...],
    ) -> None:
        super().__init__(ctx, name, layout)
        self.var = var
        self.constraints = constraints
        # (x_label, y_label, side, fetch_label, snap_side) per constraint;
        # the fetched endpoint of every constraint is ``var``
        self._plans: List[Tuple[str, str, Side, str, int]] = []
        for condition, side in constraints:
            x_label, y_label = ctx.pattern.condition_labels(condition)
            fetch_label = y_label if side is Side.OUT else x_label
            snap_side = SIDE_T if side is Side.OUT else SIDE_F
            self._plans.append((x_label, y_label, side, fetch_label, snap_side))
        # per-op subcluster memo (scalar/batched; never holds views)
        self._subclusters: Dict[Tuple[int, str, bool], Sequence[int]] = {}

    def open(self) -> None:
        super().open()
        self._subclusters = {}

    def close(self) -> None:
        self._subclusters = {}

    # -- subclusters ---------------------------------------------------
    def _subcluster(
        self, center: int, fetch_label: str, side: Side, snap_side: int
    ) -> Sequence[int]:
        """One center's labeled subcluster, in the context's substrate.

        Mmap-native: a zero-copy run slice, no memo and no CenterCache —
        the slice is an O(1) re-address of the mapping, and holding views
        would pin it past ``Snapshot.close()``.  Otherwise: per-op memo,
        then the shared CenterCache (batch mode), then one B+-tree probe.
        Subclusters are stored sorted, so every representation feeds
        :func:`~repro.query.physical.kernels.union_sorted` directly.
        """
        if self.ctx.mmap_native:
            run = self.ctx.db.join_index.subcluster_view(
                center, fetch_label, snap_side
            )
            return () if run is None else run
        memo_key = (center, fetch_label, side is Side.OUT)
        partners = self._subclusters.get(memo_key)
        if partners is not None:
            return partners
        shared = self.ctx.center_cache if self.ctx.batched else None
        cached: Optional[Tuple[int, ...]] = None
        if shared is not None:
            cached = shared.get_subcluster(
                center, fetch_label, side, stats=self.ctx.cache_stats
            )
        if cached is None:
            index = self.ctx.db.join_index
            if side is Side.OUT:
                cached = index.get_t(center, fetch_label)
            else:
                cached = index.get_f(center, fetch_label)
            if shared is not None:
                shared.put_subcluster(
                    center, fetch_label, side, cached,
                    stats=self.ctx.cache_stats,
                )
        self._subclusters[memo_key] = cached
        return cached


class MultiwaySeedOp(_MultiwayBase):
    """Bind the elimination order's first variable from the join index.

    The variable's domain is the intersection over its constraints of
    each condition's W-projection onto it: for ``(condition, Side.OUT)``
    the union of ``getT(w, Y)`` over ``w ∈ W(X, Y)``, for ``Side.IN``
    the union of ``getF(w, X)``.  With no constraints (a degenerate
    single-variable core) it falls back to the base-table extent, like
    :class:`~repro.query.physical.operators.SeedScanOp`.

    Values are emitted in ascending node order — the deterministic
    enumeration the differential suites rely on.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        var: str,
        constraints: Tuple[FilterKey, ...] = (),
    ) -> None:
        super().__init__(ctx, f"mseed({var})", RowLayout((var,)), var, constraints)
        self.label = ctx.pattern.label(var)

    def _projection(
        self, plan: Tuple[str, str, Side, str, int]
    ) -> "kernels.array[int]":
        """One condition's W-projection onto the seed variable."""
        x_label, y_label, side, fetch_label, snap_side = plan
        index = self.ctx.db.join_index
        if self.ctx.mmap_native:
            centers: Iterable[int] = index.centers_view(x_label, y_label)
        elif self.ctx.batched:
            centers = index.centers_array(x_label, y_label)
        else:
            centers = index.centers(x_label, y_label)
        metrics = self.metrics
        metrics.centers_probed += len(centers)  # type: ignore[arg-type]
        subclusters = [
            self._subcluster(center, fetch_label, side, snap_side)
            for center in centers
        ]
        domain, volume = kernels.union_sorted(subclusters)
        metrics.nodes_fetched += volume
        return domain

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        metrics = self.metrics
        if not self.constraints:
            # degenerate core: full extent, identical to SeedScanOp
            if self.ctx.mmap_native:
                for node in self.ctx.db.extent_view(self.label):
                    metrics.rows_in += 1
                    yield (node,)
                return
            for row in self.ctx.db.base_table(self.label).scan():
                metrics.rows_in += 1
                yield (row[0],)
            return
        domains: List["kernels.array[int]"] = []
        for plan in self._plans:
            domain = self._projection(plan)
            if not domain:
                return  # one empty projection proves an empty result
            domains.append(domain)
        # candidates examined = the smallest projection (intersect_many
        # folds smallest-first, so these are the values actually probed)
        metrics.rows_in += min(len(d) for d in domains)
        for node in kernels.intersect_many(domains):
            yield (node,)


class MultiwayIntersectOp(_MultiwayBase):
    """Eliminate one variable by k-way intersection of extension sets.

    Per input row, each constraint expands its bound endpoint through
    Eq. 6 (``centers = code ∩ W(X, Y)``) and Eqs. 7-9 (the union of the
    centers' labeled subclusters); the row's extensions are the
    intersection across all constraints, emitted in ascending order.  A
    row with an empty center set or an empty intersection is pruned —
    the condition is thereby *enforced*, not merely projected.

    Extension sets depend only on the tuple of scanned values, which is
    memoized; counters are charged per row even on memo hits, so memo
    state cannot perturb them.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        input_layout: RowLayout,
        var: str,
        constraints: Tuple[FilterKey, ...],
    ) -> None:
        if not constraints:
            raise ValueError(f"multiway step for {var!r} needs >= 1 constraint")
        super().__init__(
            ctx,
            f"mjoin[{var}]({_describe(constraints)})",
            RowLayout(input_layout.variables + (var,), input_layout.pending),
            var,
            constraints,
        )
        # position of each constraint's bound (scanned) endpoint
        self.scan_positions = [
            input_layout.var_position(side.scanned_var(condition))
            for condition, side in constraints
        ]
        # scanned-values tuple -> (extensions | None, probes, volume)
        self._extensions_memo: Dict[
            Tuple[int, ...], Tuple[Optional[Tuple[int, ...]], int, int]
        ] = {}
        # batch-mode resources, resolved in open(): one (W-array,
        # pair-id, code accessor) per constraint
        self._batch_keys: List[tuple] = []

    def open(self) -> None:
        super().open()
        self._extensions_memo = {}
        self._batch_keys = []
        if self.ctx.batched:
            db = self.ctx.db
            native = self.ctx.mmap_native
            for x_label, y_label, side, _fetch_label, _snap in self._plans:
                if native:
                    w_entry = db.join_index.centers_view(x_label, y_label)
                    code_of: Callable[[int], Sequence[int]] = (
                        db.out_code_view if side is Side.OUT else db.in_code_view
                    )
                else:
                    w_entry = db.join_index.centers_array(x_label, y_label)
                    code_of = (
                        db.out_code_array if side is Side.OUT else db.in_code_array
                    )
                self._batch_keys.append(
                    (w_entry, kernels.intern_label_pair(x_label, y_label), code_of)
                )

    def close(self) -> None:
        super().close()
        self._extensions_memo = {}
        self._batch_keys = []

    def _centers(self, index: int, node: int) -> Tuple[int, ...]:
        """Eq. 6 for constraint *index*'s bound endpoint, sorted."""
        x_label, y_label, side, _fetch_label, _snap = self._plans[index]
        if not self.ctx.batched:
            db = self.ctx.db
            if side is Side.OUT:
                centers = db.get_centers(node, x_label, y_label)
            else:
                centers = db.get_centers_reverse(node, x_label, y_label)
            return tuple(sorted(centers))
        w_array, pair_id, code_of = self._batch_keys[index]
        cache = self.ctx.center_cache
        cached: Optional[Tuple[int, ...]] = None
        if cache is not None:
            cached = cache.get_centers(
                node, pair_id, side, stats=self.ctx.cache_stats
            )
        if cached is None:
            if w_array:
                cached = tuple(kernels.intersect(code_of(node), w_array))
            else:
                cached = ()
            if cache is not None:
                cache.put_centers(
                    node, pair_id, side, cached,
                    stats=self.ctx.cache_stats,
                )
        return cached

    def _compute_extensions(
        self, scanned: Tuple[int, ...]
    ) -> Tuple[Optional[Tuple[int, ...]], int, int]:
        """(extensions | None, centers probed, subcluster volume)."""
        probes = 0
        volume = 0
        per_condition: List[Sequence[int]] = []
        for index, (node, plan) in enumerate(zip(scanned, self._plans)):
            _x, _y, side, fetch_label, snap_side = plan
            centers = self._centers(index, node)
            if not centers:
                return None, probes, volume
            probes += len(centers)
            subclusters = [
                self._subcluster(center, fetch_label, side, snap_side)
                for center in centers
            ]
            extensions, vol = kernels.union_sorted(subclusters)
            volume += vol
            if not extensions:
                return None, probes, volume
            per_condition.append(extensions)
        return tuple(kernels.intersect_many(per_condition)), probes, volume

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        metrics = self.metrics
        memo = self._extensions_memo
        positions = self.scan_positions
        for row in self._pull(source):
            scanned = tuple(row[p] for p in positions)
            entry = memo.get(scanned)
            if entry is None:
                entry = memo[scanned] = self._compute_extensions(scanned)
            extensions, probes, volume = entry
            # replay the counters on memo hits too: they describe the
            # algorithm's work per row, not the memoization shortcut
            metrics.centers_probed += probes
            metrics.nodes_fetched += volume
            if not extensions:
                continue
            base = tuple(row)
            for partner in extensions:
                yield base + (partner,)


__all__ = ["MultiwayIntersectOp", "MultiwaySeedOp"]
