"""lint — project-specific AST rules (stdlib :mod:`ast`, no dependencies).

Generic linters cannot know this codebase's layering rules, so this pass
encodes them directly and runs as part of ``repro check --self`` and CI:

* ``lint/storage-bypass`` — modules under ``query/`` must not import
  :mod:`repro.storage.heapfile` or :mod:`repro.storage.pages`, nor touch a
  table's ``.heap`` attribute: raw page/heap access skips the
  :class:`~repro.storage.buffer.BufferPool` and silently corrupts the I/O
  accounting every experiment depends on.  Query code goes through
  ``Table`` / ``TemporalTable`` / ``BPlusTree``.
* ``lint/physical-internals`` — modules *outside* ``query/`` must not
  import :mod:`repro.query.physical` (the operator classes, drivers and
  execution context are the query layer's private machinery): callers go
  through ``execute_plan`` / ``execute_plan_streaming`` /
  ``GraphEngine``, which guarantee plan validation and uniform metrics.
* ``lint/multiprocessing-outside-parallel`` — direct ``multiprocessing``
  imports (and the ``concurrent.futures`` pool executors) are confined
  to :mod:`repro.query.physical.parallel` (the whole-query process
  pool) and :mod:`repro.service.server` (the query service's
  admission-slot executor), so pool lifecycle and fork-safety stay in
  audited places.
* ``lint/mmap-outside-snapshot`` — :mod:`mmap` and :mod:`struct` imports
  are confined to :mod:`repro.storage.snapshot`: every binary-layout
  assumption (byte order, alignment, section framing) lives in the one
  module whose CRC/geometry checks can enforce it.  Other code handles
  snapshot *objects*, never raw bytes.
* ``lint/mutable-default`` — no mutable default arguments (list/dict/set
  literals, comprehensions, or ``list()``/``dict()``/``set()`` calls):
  the shared-instance trap.
* ``lint/enum-is`` — enum members (``Side``, ``Severity``) are compared
  with ``is`` / ``is not``, never ``==``: identity comparison cannot be
  fooled by a stale value-equal object and reads as intended.
* ``lint/bare-except`` — no bare ``except:``; it swallows
  ``KeyboardInterrupt``/``SystemExit``.  Catch something.
* ``lint/unused-import`` — imported names must be used (``__init__.py``
  re-export modules are exempt; a name mentioned anywhere else in the
  file, including string annotations, counts as used).

Each rule reports a :class:`~repro.analysis.diagnostics.Diagnostic` with
the file and line, so findings render like compiler errors.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from .diagnostics import Diagnostic, Severity

#: enum classes whose members must be compared by identity
ENUM_CLASSES = frozenset({"Side", "Severity"})

#: storage modules that bypass BufferPool-accounted access paths
_RAW_STORAGE_MODULES = (("storage", "heapfile"), ("storage", "pages"))

_MUTABLE_CALLS = frozenset({"list", "dict", "set"})
_MUTABLE_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


def _is_query_module(filename: str) -> bool:
    parts = Path(filename).parts
    return "query" in parts


def _may_import_multiprocessing(filename: str) -> bool:
    """Pool ownership is confined to two audited modules.

    The whole-query process pool lives in ``query/physical/parallel.py``;
    the query service's server owns exactly one ``ThreadPoolExecutor``
    sized to its admission slots (so ``run_in_executor`` can never
    buffer unbounded work) and the process pool it dispatches to.
    """
    path = Path(filename)
    parts = path.parts
    return (
        (path.name == "parallel.py" and "physical" in parts)
        or (path.name == "server.py" and "service" in parts)
    )


def _is_multiprocessing(module: str) -> bool:
    return module == "multiprocessing" or module.startswith("multiprocessing.")


#: modules whose import means hand-rolled binary layout handling
_BINARY_LAYOUT_MODULES = frozenset({"mmap", "struct"})


def _may_import_binary_layout(filename: str) -> bool:
    """Only the snapshot module owns raw binary layout (mmap/struct)."""
    path = Path(filename)
    return path.name == "snapshot.py" and "storage" in path.parts


def _is_binary_layout(module: str) -> bool:
    return module.split(".")[0] in _BINARY_LAYOUT_MODULES


#: ``concurrent.futures`` names that create worker pools — importing one
#: means owning a pool, which belongs in the audited modules above
_POOL_EXECUTORS = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})


def _module_tail(module: str) -> tuple:
    return tuple(module.split("."))[-2:]


def _is_physical_internal(module: str) -> bool:
    """True for any spelling of the ``repro.query.physical`` package.

    Covers absolute (``repro.query.physical.drivers``) and relative
    (``..query.physical``) dotted paths; ``from repro.query import
    physical`` is handled separately at the alias level.
    """
    parts = module.split(".")
    return "physical" in parts and "query" in parts


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, filename: str, source: str) -> None:
        self.filename = filename
        self.source = source
        self.in_query_layer = _is_query_module(filename)
        self.may_multiprocess = _may_import_multiprocessing(filename)
        self.may_binary_layout = _may_import_binary_layout(filename)
        self.is_init = Path(filename).name == "__init__.py"
        self.diagnostics: List[Diagnostic] = []
        self.imports: List[tuple] = []  # (name, lineno, import statement text)

    # ------------------------------------------------------------------
    def report(self, rule: str, lineno: int, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=message,
                source=self.filename,
                line=lineno,
            )
        )

    # ------------------------------------------------------------------
    # lint/storage-bypass + lint/unused-import (import statements)
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if self.in_query_layer and _module_tail(alias.name) in _RAW_STORAGE_MODULES:
                self.report(
                    "lint/storage-bypass",
                    node.lineno,
                    f"query-layer module imports {alias.name!r}; raw "
                    "page/heap access bypasses BufferPool I/O accounting",
                )
            if not self.in_query_layer and _is_physical_internal(alias.name):
                self.report(
                    "lint/physical-internals",
                    node.lineno,
                    f"module outside the query layer imports {alias.name!r}; "
                    "go through execute_plan/execute_plan_streaming/"
                    "GraphEngine instead of physical-operator internals",
                )
            if _is_multiprocessing(alias.name) and not self.may_multiprocess:
                self.report(
                    "lint/multiprocessing-outside-parallel",
                    node.lineno,
                    f"direct import of {alias.name!r}; pool ownership lives "
                    "in repro.query.physical.parallel — use the "
                    "WorkerPool API instead",
                )
            if _is_binary_layout(alias.name) and not self.may_binary_layout:
                self.report(
                    "lint/mmap-outside-snapshot",
                    node.lineno,
                    f"direct import of {alias.name!r}; binary layout "
                    "handling is confined to repro.storage.snapshot — "
                    "consume Snapshot objects or their blessed *_view "
                    "accessors, not raw bytes",
                )
            self.imports.append(
                (alias.asname or alias.name.split(".")[0], node.lineno)
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "__future__":
            return
        if _is_multiprocessing(module) and not self.may_multiprocess:
            self.report(
                "lint/multiprocessing-outside-parallel",
                node.lineno,
                f"direct import from {module!r}; pool ownership lives in "
                "repro.query.physical.parallel — use the WorkerPool API "
                "instead",
            )
        if _is_binary_layout(module) and not self.may_binary_layout:
            self.report(
                "lint/mmap-outside-snapshot",
                node.lineno,
                f"direct import from {module!r}; binary layout handling is "
                "confined to repro.storage.snapshot — consume Snapshot "
                "objects or their blessed *_view accessors, not raw bytes",
            )
        if module == "concurrent.futures" and not self.may_multiprocess:
            for alias in node.names:
                if alias.name in _POOL_EXECUTORS:
                    self.report(
                        "lint/multiprocessing-outside-parallel",
                        node.lineno,
                        f"direct import of {alias.name!r}; pool ownership "
                        "lives in repro.query.physical.parallel — use the "
                        "WorkerPool API instead",
                    )
        if self.in_query_layer and _module_tail(module) in _RAW_STORAGE_MODULES:
            self.report(
                "lint/storage-bypass",
                node.lineno,
                f"query-layer module imports from {module!r}; raw "
                "page/heap access bypasses BufferPool I/O accounting",
            )
        if not self.in_query_layer:
            for alias in node.names:
                # `from repro.query.physical[...] import X` or the
                # package itself via `from repro.query import physical`
                if _is_physical_internal(module) or (
                    _module_tail(module)[-1:] == ("query",)
                    and alias.name == "physical"
                ):
                    self.report(
                        "lint/physical-internals",
                        node.lineno,
                        f"module outside the query layer imports "
                        f"{alias.name!r} from {module!r}; go through "
                        "execute_plan/execute_plan_streaming/GraphEngine "
                        "instead of physical-operator internals",
                    )
        for alias in node.names:
            if alias.name == "*":
                continue
            self.imports.append((alias.asname or alias.name, node.lineno))
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # lint/storage-bypass (attribute access)
    # ------------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.in_query_layer and node.attr == "heap":
            self.report(
                "lint/storage-bypass",
                node.lineno,
                "query-layer code reaches into a table's .heap; scan "
                "through Table/TemporalTable so I/O stays accounted",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # lint/mutable-default
    # ------------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            bad = isinstance(default, _MUTABLE_NODES) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            )
            if bad:
                self.report(
                    "lint/mutable-default",
                    default.lineno,
                    f"function {node.name!r} has a mutable default "
                    "argument; default to None (or a frozen value) and "
                    "construct inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # lint/enum-is
    # ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for pos, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[pos], operands[pos + 1]):
                if (
                    isinstance(side, ast.Attribute)
                    and isinstance(side.value, ast.Name)
                    and side.value.id in ENUM_CLASSES
                ):
                    which = "is not" if isinstance(op, ast.NotEq) else "is"
                    self.report(
                        "lint/enum-is",
                        node.lineno,
                        f"compare {side.value.id}.{side.attr} with "
                        f"{which!r}, not ==/!= (enum members are "
                        "singletons)",
                    )
                    break
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # lint/bare-except
    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                "lint/bare-except",
                node.lineno,
                "bare 'except:' also catches KeyboardInterrupt/SystemExit; "
                "name the exception(s)",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # lint/unused-import (finish)
    # ------------------------------------------------------------------
    def finish(self, tree: ast.AST) -> None:
        if self.is_init:
            return  # __init__ modules re-export; unused-looking is the point
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
        }
        for name, lineno in self.imports:
            if name in used or name == "_":
                continue
            # Conservative fallback: string annotations, doctests and
            # comments mention names the AST walk cannot see.
            if re.search(rf"\b{re.escape(name)}\b", self._non_import_text(lineno)):
                continue
            self.report(
                "lint/unused-import",
                lineno,
                f"imported name {name!r} is never used",
            )

    def _non_import_text(self, import_lineno: int) -> str:
        lines = self.source.splitlines()
        if 1 <= import_lineno <= len(lines):
            lines = lines[: import_lineno - 1] + lines[import_lineno:]
        return "\n".join(
            line for line in lines
            if not re.match(r"\s*(import|from)\s", line)
        )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def lint_source(source: str, filename: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source text; returns its findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="lint/syntax-error",
                severity=Severity.ERROR,
                message=str(exc.msg),
                source=filename,
                line=exc.lineno,
            )
        ]
    visitor = _LintVisitor(filename, source)
    visitor.visit(tree)
    visitor.finish(tree)
    return visitor.diagnostics


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[Diagnostic]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    findings: List[Diagnostic] = []
    for path in paths:
        path = Path(path)
        files: Sequence[Path]
        if path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:
            files = [path]
        for file in files:
            findings.extend(lint_source(file.read_text(), str(file)))
    return findings


def lint_project(root: Union[str, Path, None] = None) -> List[Diagnostic]:
    """Lint the repository's own source tree (``src/repro``).

    *root* defaults to the installed package directory, which inside the
    repository checkout is ``src/repro`` — the ``repro check --self`` gate.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    return lint_paths([root])
