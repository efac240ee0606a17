"""racecheck — shared-state mutation rules for worker-executed code.

The service's whole-query process pool
(:mod:`repro.query.physical.parallel`) ships work to pool workers with a
hard contract: a worker may build and mutate *its own* engine, caches
and contexts, but must never write through state the coordinator also
sees — results flow back only through the futures' return values.

This pack checks it interprocedurally:

1. every function submitted across the pool boundary (``pool.submit(fn,
   ...)`` / ``initializer=fn``) is a *worker root*, and everything
   reachable from one may execute inside a worker;
2. a worker root's parameters (the payload, the database handle, the
   stage lock) and every module global are *coordinator-shared*; taint
   propagates through typed call edges (arguments to parameters,
   receivers to ``self``) — deliberately **not** through dynamic
   name-matched edges or call results, which would manufacture taint
   out of worker-local constructions like the engine
   ``_run_query_task`` builds;
3. an attribute write, in-place mutation or global rebinding whose
   receiver is rooted in shared state, inside a worker-reachable
   function, is a diagnostic — with the worker-root call path printed
   so the report explains *how* the function ends up in a worker.

Rules
-----
``race/shared-write``
    ``shared.attr = ...`` (or ``+=`` / ``del``) on coordinator-shared state.
``race/shared-mutation``
    An in-place mutator (``append``/``update``/``d[k] = v``/...) on
    coordinator-shared state.
``race/global-write``
    Rebinding a module global from worker-reachable code.

Exemptions are explicit and carry their justification: modules whose
shared-state writes are reviewed as safe, plus a per-function allowlist
for audited benign cases (see :data:`EXEMPT_MODULE_PREFIXES` /
:data:`ALLOWLIST`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .callgraph import EDGE_DYNAMIC, Project, build_project
from .dataflow import FunctionSummary, Origin
from .diagnostics import Diagnostic, Severity

#: module prefixes whose shared-state writes are accepted, with the
#: reviewed justification for each
EXEMPT_MODULE_PREFIXES: Dict[str, str] = {
    "repro.query.physical.parallel": (
        "owns the pool: the worker globals (_WORKER_DB, _WORKER_ENGINE) "
        "are bound inside each worker process, by its initializer and its "
        "first query, and the coordinator never reads them"
    ),
    "repro.service.": (
        "service state mutates only on the event loop (scheduler) or under "
        "ServiceStats' lock; slot threads execute queries concurrently but "
        "share only the engine's internally synchronized structures "
        "(sharded CenterCache, lock-guarded plan cache, tiered storage "
        "read path) plus per-query private contexts and thread-local "
        "IOStats overrides"
    ),
    "repro.analysis.": (
        "analysis passes never execute inside query workers (they appear "
        "reachable only through dynamic name-matched edges)"
    ),
    "repro.baselines.": (
        "baseline matchers are single-threaded reference implementations, "
        "never submitted to a pool"
    ),
}

#: function qualname -> justification for audited benign shared writes
ALLOWLIST: Dict[str, str] = {
    "repro.query.physical.kernels.intern_label_pair": (
        "process-local interning table: racy inserts are idempotent "
        "(same key -> same id within a process) and ids never cross the "
        "process boundary"
    ),
    "repro.query.physical.kernels.clear_pair_ids": (
        "process-local interning reset: the epoch bump that accompanies "
        "every clear makes stale ids unreachable (CenterCache keys embed "
        "the epoch), each mutation is GIL-atomic, and a process worker "
        "clears only its own copy of the table"
    ),
}


def _is_exempt(module: str) -> Optional[str]:
    for prefix, reason in EXEMPT_MODULE_PREFIXES.items():
        if module == prefix or module.startswith(prefix):
            return reason
    return None


def _origin_tainted(origin: Origin, tainted_params: Set[str]) -> bool:
    if origin.kind == "global":
        return True
    if origin.kind == "param":
        return origin.name in tainted_params
    if origin.kind == "self":
        return "self" in tainted_params
    return False


def taint_map(project: Project) -> Dict[str, Set[str]]:
    """Worklist fixpoint: function -> parameters bound to shared state.

    Seeds every worker root with all of its parameters tainted and
    propagates through typed call edges only (argument position /
    keyword / receiver-to-``self``).
    """
    taint: Dict[str, Set[str]] = {}
    queue: List[str] = []
    for root in sorted({w.function for w in project.worker_roots}):
        info = project.functions.get(root)
        if info is None:
            continue
        taint[root] = set(info.params)
        queue.append(root)

    while queue:
        caller = queue.pop(0)
        tainted_params = taint.get(caller, set())
        summary = project.summaries.get(caller)
        if not isinstance(summary, FunctionSummary):
            continue
        for call in summary.calls:
            for callee, kind in call.callees:
                if kind == EDGE_DYNAMIC:
                    continue
                target = project.functions.get(callee)
                if target is None:
                    continue
                positional: List[Optional[Origin]] = list(call.args)
                if target.is_method:
                    # bind the receiver to ``self``; a constructor call
                    # has no receiver and its fresh object is not shared
                    positional = [call.receiver] + positional
                updates: Set[str] = set()
                for index, origin in enumerate(positional):
                    if index >= len(target.params):
                        break
                    if origin is not None and _origin_tainted(
                        origin, tainted_params
                    ):
                        updates.add(target.params[index])
                for name, origin in call.kwargs:
                    if name in target.params and _origin_tainted(
                        origin, tainted_params
                    ):
                        updates.add(name)
                current = taint.setdefault(callee, set())
                if not updates <= current:
                    current |= updates
                    queue.append(callee)
    return taint


def check_races(project: Optional[Project] = None) -> List[Diagnostic]:
    """Run the race rule pack over a built project."""
    if project is None:
        project = build_project()
    roots = sorted({w.function for w in project.worker_roots})
    parents = project.reachable_from(roots)
    taint = taint_map(project)
    diagnostics: List[Diagnostic] = []

    for qualname in sorted(parents):
        function = project.functions.get(qualname)
        if function is None:
            continue
        if qualname in ALLOWLIST or _is_exempt(function.module) is not None:
            continue
        summary = project.summaries.get(qualname)
        if not isinstance(summary, FunctionSummary):
            continue
        tainted_params = taint.get(qualname, set())
        module = project.modules.get(function.module)
        source = module.path if module is not None else function.module
        path = " -> ".join(
            project.short(step)
            for step in project.call_path(qualname, parents)
        )

        for write in summary.attr_writes:
            if _origin_tainted(write.origin, tainted_params):
                diagnostics.append(
                    Diagnostic(
                        rule="race/shared-write",
                        severity=Severity.ERROR,
                        message=(
                            f"worker-reachable `{project.short(qualname)}` "
                            f"writes `{write.origin.describe()}.{write.attr}`, "
                            f"which aliases coordinator-shared state "
                            f"(worker call path: {path})"
                        ),
                        source=source,
                        line=write.lineno,
                    )
                )
        for mutation in summary.mut_calls:
            if _origin_tainted(mutation.origin, tainted_params):
                diagnostics.append(
                    Diagnostic(
                        rule="race/shared-mutation",
                        severity=Severity.ERROR,
                        message=(
                            f"worker-reachable `{project.short(qualname)}` "
                            f"mutates `{mutation.origin.describe()}` in place "
                            f"via `{mutation.method}`, which aliases "
                            f"coordinator-shared state "
                            f"(worker call path: {path})"
                        ),
                        source=source,
                        line=mutation.lineno,
                    )
                )
        for global_write in summary.global_writes:
            diagnostics.append(
                Diagnostic(
                    rule="race/global-write",
                    severity=Severity.ERROR,
                    message=(
                        f"worker-reachable `{project.short(qualname)}` "
                        f"rebinds module global `{global_write.name}` "
                        f"(worker call path: {path})"
                    ),
                    source=source,
                    line=global_write.lineno,
                )
            )
    return diagnostics


__all__ = ["ALLOWLIST", "EXEMPT_MODULE_PREFIXES", "check_races", "taint_map"]
