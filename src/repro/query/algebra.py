"""Plan algebra: temporal tables and the R-join/R-semijoin plan steps.

A query plan for a pattern is a *left-deep* sequence of steps (paper
Section 4): the first step seeds a temporal table (an HPSJ R-join of two
base tables, or an extent scan for single-variable patterns) and every
later step is one of

* ``FilterStep`` — one shared scan applying one or more R-semijoins
  (``Filter`` of Algorithm 2 / Eq. 7-8; several conditions on the same
  scanned variable are processed together per Remark 3.1);
* ``FetchStep`` — the ``Fetch`` half of Algorithm 2, completing an R-join
  whose Filter already ran and materializing a new variable column;
* ``SelectionStep`` — a *self R-join* (Eq. 5): both variables already in
  the temporal table, evaluated as a selection on graph codes.

A second plan family covers *cyclic* join graphs, where every left-deep
tree of binary R-joins can materialize intermediates asymptotically
larger than the output: a **multiway plan** is a variable elimination
order — one ``MultiwaySeed`` followed by one ``MultiwayStep`` per
remaining variable — executed generic-join style (each step intersects
the extension sets of *all* conditions touching its variable, see
:mod:`repro.query.physical.multiway`).  The two families never mix
within one plan.

The drivers (:mod:`repro.query.physical.drivers`) interpret these steps
against a :class:`~repro.db.database.GraphDatabase`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..storage.buffer import BufferPool
from ..storage.table import Table
from .pattern import Condition, GraphPattern, PatternError


class RowLimitExceeded(RuntimeError):
    """Raised when an operator's output outgrows an explicit row limit.

    Used as an execution guard: callers that only need to know whether a
    query stays within budget (e.g. workload validation) pass
    ``row_limit`` to the executor and catch this instead of waiting for a
    runaway multi-million-row intermediate to materialize.
    """


class Side(enum.Enum):
    """Which side of a condition the temporal table holds.

    ``OUT``: the temporal table has the condition's *source* variable; the
    Filter scans its out-codes and the Fetch adds the target via
    ``getT(w, Y)`` — the plain Algorithm 2 direction.

    ``IN``: the temporal table has the *target*; the Filter scans
    in-codes and the Fetch adds the source via ``getF(w, X)`` — the mirror
    case the paper sketches after Algorithm 2.
    """

    OUT = "out"
    IN = "in"

    def scanned_var(self, condition: Condition) -> str:
        return condition[0] if self is Side.OUT else condition[1]

    def fetched_var(self, condition: Condition) -> str:
        return condition[1] if self is Side.OUT else condition[0]


FilterKey = Tuple[Condition, Side]


@dataclass(frozen=True)
class SeedScan:
    """Scan one base table to seed a single-variable temporal table."""

    var: str


@dataclass(frozen=True)
class SeedJoin:
    """HPSJ (Algorithm 1): R-join two base tables via the join index."""

    condition: Condition


@dataclass(frozen=True)
class FilterStep:
    """One shared scan applying R-semijoins for all listed filter keys.

    Every key must scan the *same* variable (Remark 3.1's sharing
    condition: "either all X_i or all Y_i are the same").
    """

    keys: Tuple[FilterKey, ...]

    def __post_init__(self) -> None:
        scanned = {side.scanned_var(cond) for cond, side in self.keys}
        if len(scanned) != 1:
            raise PatternError(
                f"a shared FilterStep must scan one variable, got {sorted(scanned)}"
            )
        sides = {side for _, side in self.keys}
        if len(sides) != 1:
            # Remark 3.1: sharable only when all sources or all targets
            # coincide — i.e. one column scanned with one code kind
            raise PatternError(
                "a shared FilterStep must use one side (all X_i or all Y_i equal)"
            )

    @property
    def scanned_var(self) -> str:
        condition, side = self.keys[0]
        return side.scanned_var(condition)


@dataclass(frozen=True)
class FetchStep:
    """Fetch (Algorithm 2): complete a filtered R-join, adding a variable."""

    condition: Condition
    side: Side


@dataclass(frozen=True)
class SelectionStep:
    """Self R-join (Eq. 5): check a condition between two bound variables."""

    condition: Condition


@dataclass(frozen=True)
class MultiwaySeed:
    """Seed a multiway (generic-join) plan: bind the first variable of an
    elimination order.

    ``constraints`` lists the conditions incident to *var*, keyed so that
    ``side.fetched_var(condition) == var``; the operator binds *var* to
    the intersection of the per-condition W-projections (every value a
    final match could take must appear in each projection).  The seed
    *prunes* with these conditions but does not *evaluate* any of them —
    each condition is enforced exactly once, at the
    :class:`MultiwayStep` that eliminates its later endpoint.
    """

    var: str
    constraints: Tuple[FilterKey, ...] = ()

    def __post_init__(self) -> None:
        for condition, side in self.constraints:
            if side.fetched_var(condition) != self.var:
                raise PatternError(
                    f"multiway seed constraint {condition} [{side.value}] "
                    f"does not bind variable {self.var!r}"
                )


@dataclass(frozen=True)
class MultiwayStep:
    """Eliminate one variable by a multiway intersection (generic join).

    Per input row, the new variable's bindings are the intersection over
    *all* ``constraints`` of the condition's extension set from the bound
    endpoint — ``∪_{w ∈ out(x) ∩ W(X,Y)} getT(w, Y)`` for ``Side.OUT``
    (bound source), ``∪_{w ∈ in(y) ∩ W(X,Y)} getF(w, X)`` for ``Side.IN``
    (bound target).  Every listed condition is thereby fully evaluated;
    no intermediate R-join result is ever materialized for them.
    """

    var: str
    constraints: Tuple[FilterKey, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise PatternError(
                f"multiway step for {self.var!r} has no constraints; the "
                "elimination order must keep the join graph connected"
            )
        for condition, side in self.constraints:
            if side.fetched_var(condition) != self.var:
                raise PatternError(
                    f"multiway constraint {condition} [{side.value}] does "
                    f"not bind variable {self.var!r}"
                )


PlanStep = (
    SeedScan
    | SeedJoin
    | FilterStep
    | FetchStep
    | SelectionStep
    | MultiwaySeed
    | MultiwayStep
)


@dataclass
class Plan:
    """A validated left-deep plan for a pattern."""

    pattern: GraphPattern
    steps: List[PlanStep] = field(default_factory=list)

    def validate(self) -> None:
        """Simulate binding to catch malformed step sequences early."""
        if not self.steps:
            raise PatternError("plan has no steps")
        first = self.steps[0]
        bound: set = set()
        pending: set = set()
        done: set = set()
        if isinstance(first, MultiwaySeed):
            self._validate_multiway(first, bound, done)
            self._validate_coverage(bound, pending, done)
            return
        if isinstance(first, SeedScan):
            bound.add(first.var)
        elif isinstance(first, SeedJoin):
            bound.update(first.condition)
            done.add(first.condition)
        else:
            raise PatternError(f"plan must start with a seed step, got {first}")
        for step in self.steps[1:]:
            if isinstance(step, FilterStep):
                if step.scanned_var not in bound:
                    raise PatternError(
                        f"filter scans unbound variable {step.scanned_var!r}"
                    )
                for key in step.keys:
                    condition, side = key
                    mirror = (condition, Side.IN if side is Side.OUT else Side.OUT)
                    if key in pending or mirror in pending or condition in done:
                        raise PatternError(f"duplicate filter for {key}")
                    if side.fetched_var(condition) in bound:
                        raise PatternError(
                            f"filter for {key} targets already-bound variable "
                            f"{side.fetched_var(condition)!r}; use a "
                            "SelectionStep between two bound variables"
                        )
                    pending.add(key)
            elif isinstance(step, FetchStep):
                key = (step.condition, step.side)
                if key not in pending:
                    mirror = (
                        step.condition,
                        Side.IN if step.side is Side.OUT else Side.OUT,
                    )
                    if mirror in pending:
                        raise PatternError(
                            f"fetch for {step.condition} uses side "
                            f"{step.side.value!r} but its filter ran with "
                            f"side {mirror[1].value!r}"
                        )
                    raise PatternError(
                        f"fetch for {key} has no preceding filter (HPSJ+ requires "
                        "Filter before Fetch)"
                    )
                fetched = step.side.fetched_var(step.condition)
                if fetched in bound:
                    raise PatternError(
                        f"fetch for {step.condition} re-binds variable "
                        f"{fetched!r}; the temporal table would get a "
                        "duplicate column"
                    )
                pending.discard(key)
                bound.add(fetched)
                done.add(step.condition)
            elif isinstance(step, SelectionStep):
                src, dst = step.condition
                if src not in bound or dst not in bound:
                    raise PatternError(
                        f"selection on {step.condition} with unbound variable"
                    )
                if step.condition in done:
                    raise PatternError(f"condition {step.condition} evaluated twice")
                done.add(step.condition)
            elif isinstance(step, (MultiwaySeed, MultiwayStep)):
                raise PatternError(
                    f"multiway step {step} in a left-deep plan; multiway "
                    "plans start with a MultiwaySeed and contain only "
                    "MultiwayStep after it"
                )
            else:
                raise PatternError(f"seed step {step} must come first")
        self._validate_coverage(bound, pending, done)

    def _validate_multiway(self, first: "MultiwaySeed", bound: set, done: set) -> None:
        """Binding simulation for a generic-join plan (elimination order)."""
        bound.add(first.var)
        for step in self.steps[1:]:
            if not isinstance(step, MultiwayStep):
                raise PatternError(
                    f"step {step} in a multiway plan; after a MultiwaySeed "
                    "every step must be a MultiwayStep"
                )
            if step.var in bound:
                raise PatternError(
                    f"multiway step re-binds variable {step.var!r}"
                )
            for condition, side in step.constraints:
                if side.scanned_var(condition) not in bound:
                    raise PatternError(
                        f"multiway constraint {condition} [{side.value}] "
                        f"scans unbound variable "
                        f"{side.scanned_var(condition)!r}"
                    )
                if condition in done:
                    raise PatternError(
                        f"condition {condition} evaluated twice"
                    )
                done.add(condition)
            bound.add(step.var)

    def _validate_coverage(self, bound: set, pending: set, done: set) -> None:
        missing = set(self.pattern.conditions) - done
        if missing:
            raise PatternError(f"plan never evaluates conditions {sorted(missing)}")
        unbound = set(self.pattern.variables) - bound
        if unbound:
            raise PatternError(f"plan never binds variables {sorted(unbound)}")
        if pending:
            raise PatternError(f"plan leaves filters {sorted(pending, key=str)} unfetched")

    def describe(self) -> str:
        """Human-readable one-line-per-step rendering (for EXPLAIN)."""
        lines = []
        for step in self.steps:
            if isinstance(step, SeedScan):
                lines.append(f"SCAN      T_{self.pattern.label(step.var)} ({step.var})")
            elif isinstance(step, SeedJoin):
                src, dst = step.condition
                lines.append(f"HPSJ      {src} -> {dst}")
            elif isinstance(step, FilterStep):
                conds = ", ".join(
                    f"{c[0]}->{c[1]}[{s.value}]" for c, s in step.keys
                )
                lines.append(f"FILTER    scan {step.scanned_var}: {conds}")
            elif isinstance(step, FetchStep):
                src, dst = step.condition
                lines.append(f"FETCH     {src} -> {dst} [{step.side.value}]")
            elif isinstance(step, SelectionStep):
                src, dst = step.condition
                lines.append(f"SELECT    {src} -> {dst}")
            elif isinstance(step, MultiwaySeed):
                conds = ", ".join(
                    f"{c[0]}->{c[1]}[{s.value}]" for c, s in step.constraints
                )
                lines.append(f"MSEED     {step.var}: {conds or '(full extent)'}")
            elif isinstance(step, MultiwayStep):
                conds = ", ".join(
                    f"{c[0]}->{c[1]}[{s.value}]" for c, s in step.constraints
                )
                lines.append(f"MJOIN     {step.var}: {conds}")
        return "\n".join(lines)


class TemporalTable:
    """An intermediate result: bound variable columns + pending center sets.

    Rows are tuples: first the node ids of ``variables`` (in order), then
    one ``tuple(centers)`` per entry of ``pending`` — the ``(r_i, X_i)``
    pairs that Algorithm 2's Filter emits into ``T_W``.  Rows live in a
    heap file through the buffer pool, so temporal-table scans and writes
    are charged I/O like any other table.
    """

    def __init__(
        self,
        pool: BufferPool,
        variables: Sequence[str],
        pending: Sequence[FilterKey] = (),
        name: str = "temp",
        row_limit: int | None = None,
    ) -> None:
        self.variables: Tuple[str, ...] = tuple(variables)
        self.pending: Tuple[FilterKey, ...] = tuple(pending)
        self.row_limit = row_limit
        columns = list(self.variables) + [
            f"__centers_{i}" for i in range(len(self.pending))
        ]
        self.table = Table(pool, name=name, columns=columns)

    @classmethod
    def from_layout(
        cls,
        pool: BufferPool,
        layout,
        name: str = "temp",
        row_limit: int | None = None,
    ) -> "TemporalTable":
        """Build a table whose schema matches a physical operator's output.

        *layout* is any object with ``variables`` and ``pending`` (the
        :class:`repro.query.physical.RowLayout` the operator computed);
        the materializing driver uses this to turn each operator's output
        stream into a stored intermediate.
        """
        return cls(
            pool,
            variables=layout.variables,
            pending=layout.pending,
            name=name,
            row_limit=row_limit,
        )

    # ------------------------------------------------------------------
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

    def insert(self, row: Sequence) -> None:
        if self.row_limit is not None and len(self.table) >= self.row_limit:
            raise RowLimitExceeded(
                f"temporal table exceeded {self.row_limit} rows"
            )
        self.table.insert(row)

    def scan(self):
        return self.table.scan()

    def drop(self) -> None:
        """Free the table's pages on the simulated disk (no I/O charged)."""
        self.table.drop()

    @property
    def row_count(self) -> int:
        return len(self.table)

    @property
    def page_count(self) -> int:
        return self.table.page_count

    def __len__(self) -> int:
        return len(self.table)
