"""The benchmark's own arithmetic: percentiles, digests, q-error, spans.

Nothing here imports the program, so the numbers the benchmark reports
cannot change when the program does.  ``test_measure.py`` covers every
function.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: percentiles a tail may be reported at, lowest first.  Coarse rungs
#: keep the reported percentile fixed while the sample count of a run
#: moves a little; p99.9 of sub-millisecond requests on a shared
#: machine measures the machine, not the program.
TAIL_LADDER = (50.0, 90.0, 99.0)

#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least *pct*
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* samples rank above the nearest-rank *pct*."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail(values: Sequence[float], exact: bool = False) -> Tuple[float, float, int]:
    """``(value, percentile, beyond)`` at the highest ladder percentile
    with at least :data:`TAIL_MIN_BEYOND` samples beyond it.

    With too few samples for any rung the median is returned, and
    ``beyond`` says how thin it is.  ``exact`` skips the ladder and takes
    the highest percentile that still leaves ten samples beyond it (the
    per-layer metrics, whose runs hold a few dozen samples).
    """
    count = len(values)
    if exact and count > TAIL_MIN_BEYOND:
        rank = count - TAIL_MIN_BEYOND
        return sorted(values)[rank - 1], 100.0 * rank / count, TAIL_MIN_BEYOND
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if samples_beyond(count, pct) >= TAIL_MIN_BEYOND:
            chosen = pct
    return percentile(values, chosen), chosen, samples_beyond(count, chosen)


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the acceptance check
    computes it (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else math.inf
    return q1, median, q3, spread


def q_error(estimated: float, actual: float) -> float:
    """Symmetric estimate error ``max(e/a, a/e)``, both clamped to 1 row
    so an empty result or a zero estimate stays finite."""
    est = max(1.0, float(estimated))
    act = max(1.0, float(actual))
    return max(est / act, act / est)


def rows_digest(rows: Iterable[Sequence[int]]) -> str:
    """Order-independent digest of a result: sha256 over the sorted rows,
    one ``a,b,c`` line each."""
    ordered = sorted(tuple(row) for row in rows)
    text = "\n".join(",".join(str(v) for v in row) for row in ordered)
    return hashlib.sha256(text.encode()).hexdigest()


def check_rows(
    rows: Sequence[Sequence[int]], expected_count: int, expected_digest: str
) -> Optional[str]:
    """``None`` when *rows* is the frozen full result, else why not."""
    if len(rows) != expected_count:
        return f"{len(rows)} rows, expected {expected_count}"
    if rows_digest(rows) != expected_digest:
        return "row digest mismatch"
    return None


def check_prefix(
    rows: Sequence[Sequence[int]], limit: int, full: "set[Tuple[int, ...]]"
) -> Optional[str]:
    """``None`` when *rows* is a valid first-*limit* answer: exactly
    ``min(limit, len(full))`` distinct rows, each one of the full result."""
    want = min(limit, len(full))
    if len(rows) != want:
        return f"{len(rows)} rows, expected {want}"
    seen = {tuple(row) for row in rows}
    if len(seen) != len(rows):
        return "duplicate rows"
    if not seen <= full:
        return "row outside the full result"
    return None


def wire_ms(client_ms: float, queue_ms: float, exec_ms: float) -> float:
    """What a served request spent outside the server's queue and
    execution: request encoding, the socket both ways, response
    encoding and decoding.  Clamped at 0 against clock rounding."""
    return max(0.0, client_ms - queue_ms - exec_ms)


def fmt(value: float) -> str:
    return f"{value:.6g}"


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call: ``start``/``end`` in seconds on one clock."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    rid: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
    ) -> int:
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent, rid))
        return sid

    def self_times(self) -> Dict[str, List[float]]:
        """Self time of every span, grouped by span name (seconds)."""
        return self_times(self.spans)


def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of *interval* that the union of *parts* covers."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in parts if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[str, List[float]] = {}
    for span in spans:
        own = span.duration - covered(
            (span.start, span.end), children.get(span.sid, ())
        )
        out.setdefault(span.name, []).append(own)
    return out
