"""sanitizer — runtime tripwires for the deep static checker's invariants.

The rule packs in :mod:`repro.analysis.racecheck` and
:mod:`repro.analysis.contracts` are necessarily approximate: taint does
not flow through call results, dynamic dispatch is name-matched, and an
untyped receiver is a silent false negative.  Sanitizer mode is the
dynamic oracle that backs them up — every statically checked contract
has a runtime tripwire that fires on the actual execution:

* **cache-generation freshness** — a sanitizing
  :class:`~repro.query.physical.cache.CenterCache` is bound to its
  database and asserts ``index_generation`` freshness on *every* read,
  not just at the sync choke point (``contract/cache-unsynced-read``
  oracle);
* **snapshot view poisoning** — closing a
  :class:`~repro.storage.snapshot.Snapshot` while zero-copy views are
  still exported raises :class:`SanitizerError` naming the hazard
  instead of the cryptic ``BufferError`` (``mmap/view-held`` oracle);
* **cache shard isolation** — a sharded
  :class:`~repro.query.physical.cache.CenterCache` keeps every entry in
  the shard its key hashes to, with per-shard byte ledgers that match
  the entries actually resident; :func:`verify_shard_isolation` audits
  both at every cache sync, so a cross-shard write (a locking bug in
  the striped tier) trips at runtime (``conc/*`` oracle).

Everything is opt-in: ``ExecutionContext(sanitize=True)`` or
``REPRO_SANITIZE=1`` in the environment (read per execution, so the
differential suite can flip it without re-importing anything).  The
hooks live in the query/storage modules themselves and import this
module lazily — this module must stay stdlib-only so the analysis layer
never depends on the query layer.
"""

from __future__ import annotations

import os
from typing import Any, Optional

#: environment switch; any value other than these enables sanitize mode
_FALSEY = frozenset({"", "0", "false", "off", "no"})


class SanitizerError(RuntimeError):
    """A runtime tripwire fired: a checked invariant was violated."""


def sanitize_enabled() -> bool:
    """Is sanitize mode requested via ``REPRO_SANITIZE``?

    Read on every call (never cached at import time) so tests and CI
    legs can toggle the environment per execution.
    """
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in _FALSEY


def verify_shard_isolation(cache: Any, where: str = "") -> None:
    """Audit a sharded cache's shard homes and byte ledgers.

    Duck-typed: any object exposing ``check_shard_isolation() ->
    list[str]`` qualifies (the striped
    :class:`~repro.query.physical.cache.CenterCache` does).  Objects
    without the hook — unsharded caches, ``None`` — pass trivially, so
    call sites need no tier checks.  Raises :class:`SanitizerError`
    listing every violation.
    """
    checker = getattr(cache, "check_shard_isolation", None)
    if checker is None:
        return
    violations = checker()
    if violations:
        location = f" in {where}" if where else ""
        raise SanitizerError(
            f"cache shard isolation violated{location}: "
            + "; ".join(violations)
            + " — a write landed outside its key's shard or a shard "
            "ledger drifted (see conc/* rules)"
        )


def assert_generation_fresh(
    bound_generation: Optional[int], db: Any, what: str = "CenterCache"
) -> None:
    """Per-read freshness tripwire for generation-keyed caches."""
    current = getattr(db, "index_generation", None)
    if bound_generation != current:
        raise SanitizerError(
            f"{what} read at generation {bound_generation} but the "
            f"database is at generation {current} — a sync choke point "
            f"was bypassed (see contract/cache-unsynced-read)"
        )


__all__ = [
    "SanitizerError",
    "assert_generation_fresh",
    "sanitize_enabled",
    "verify_shard_isolation",
]
