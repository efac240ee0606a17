"""Concurrent differential suite: many clients, one engine, oracle rows.

The tentpole's correctness contract (ISSUE 10 / DESIGN.md Section 2.9):
with the service's global engine lock gone, any number of threads (or
dispatched worker processes) may execute queries against ONE shared
engine and every run must stay byte-identical to the single-threaded
oracle — same rows, same columns, same per-operator counters.  Nothing
about concurrency may leak into results.

Legs:

* direct-engine thread hammer on both tiers — the snapshot-backed
  (lock-free) tier and the live B+-tree (fine-grained lock) tier;
* the same hammer with ``REPRO_SANITIZE=1``, arming the runtime
  shard-isolation oracle at every sync choke point;
* a service leg in whole-query process-dispatch mode (rows over the
  wire vs. the library oracle);
* the acceptance test: with ``max_inflight=4`` on a snapshot engine the
  ``exec_span`` windows reported by concurrent responses overlap —
  admitted queries really execute simultaneously, not serially.

Concurrent runs use ``reset_counters=False``, matching the service's
execution model (``match_iter`` never cold-starts shared counters);
the pinned invariant that the center cache is counter-neutral makes
warm-vs-cold irrelevant to the compared metrics.
"""

import threading

import pytest

from repro import GraphEngine
from repro.db.persist import save_database
from repro.graph import xmark
from repro.query.physical.parallel import fork_available
from repro.service import (
    ServiceClient,
    ServiceConfig,
    rows_as_tuples,
    start_in_thread,
)
from repro.workloads.patterns import PatternFactory

THREADS = 4
ROUNDS = 2

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process dispatch needs fork"
)


@pytest.fixture(scope="module")
def live_engine():
    data = xmark.generate(factor=0.1, entity_budget=400, seed=7)
    return GraphEngine(data.graph)


@pytest.fixture(scope="module")
def snapshot_engine(live_engine, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("concsnap") / "db.snap")
    save_database(live_engine.db, path)
    return GraphEngine.from_snapshot(path)


@pytest.fixture(scope="module")
def workload(live_engine):
    """Mixed acyclic paths + cyclic cores, each with its optimizer."""
    factory = PatternFactory(live_engine.db.catalog, seed=11)
    items = []
    for name, pattern in list(factory.figure4_paths().items())[:3]:
        items.append((name, pattern, "dps"))
    for name, pattern in factory.cyclic_patterns(("triangle",)).items():
        items.append((name, pattern, "wcoj"))
    return items


def op_counters(metrics):
    return [
        (op.operator, op.rows_in, op.rows_out, op.centers_probed, op.nodes_fetched)
        for op in metrics.operators
    ]


def build_oracle(engine, workload):
    """Single-threaded ground truth: rows, columns and per-op counters."""
    oracle = {}
    for name, pattern, optimizer in workload:
        result = engine.match(pattern, optimizer=optimizer, reset_counters=False)
        oracle[name] = {
            "columns": list(result.columns),
            "rows": list(result.rows),
            "counters": op_counters(result.metrics),
        }
    return oracle


def hammer(engine, workload, oracle, threads=THREADS, rounds=ROUNDS):
    """N threads run the whole workload against one shared engine."""
    barrier = threading.Barrier(threads)
    failures = []

    def body(tid):
        try:
            barrier.wait(timeout=30)
            for _ in range(rounds):
                for name, pattern, optimizer in workload:
                    result = engine.match(
                        pattern, optimizer=optimizer, reset_counters=False
                    )
                    expect = oracle[name]
                    assert list(result.columns) == expect["columns"], name
                    assert list(result.rows) == expect["rows"], name
                    assert op_counters(result.metrics) == expect["counters"], name
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            failures.append((tid, repr(exc)))

    workers = [
        threading.Thread(target=body, args=(tid,), daemon=True)
        for tid in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert not worker.is_alive(), "hammer thread hung"
    assert failures == []


# ----------------------------------------------------------------------
# direct engine, both tiers
# ----------------------------------------------------------------------
class TestEngineHammer:
    def test_snapshot_tier_threads_match_oracle(self, snapshot_engine, workload):
        oracle = build_oracle(snapshot_engine, workload)
        hammer(snapshot_engine, workload, oracle)

    def test_live_tier_threads_match_oracle(self, live_engine, workload):
        oracle = build_oracle(live_engine, workload)
        hammer(live_engine, workload, oracle)

    def test_snapshot_tier_under_sanitizer(
        self, snapshot_engine, workload, monkeypatch
    ):
        """REPRO_SANITIZE=1 arms the shard-isolation oracle mid-hammer."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        oracle = build_oracle(snapshot_engine, workload)
        hammer(snapshot_engine, workload, oracle, threads=2, rounds=1)

    def test_live_tier_under_sanitizer(self, live_engine, workload, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        oracle = build_oracle(live_engine, workload)
        hammer(live_engine, workload, oracle, threads=2, rounds=1)


# ----------------------------------------------------------------------
# service legs
# ----------------------------------------------------------------------
def service_hammer(handle, workload, oracle, threads=THREADS):
    """N clients replay the workload over the wire; rows must match."""
    host, port = handle.address
    barrier = threading.Barrier(threads)
    failures = []
    spans = []
    spans_lock = threading.Lock()

    def body(tid):
        try:
            with ServiceClient(host, port, timeout=120) as client:
                barrier.wait(timeout=30)
                for name, pattern, optimizer in workload:
                    response = client.query(
                        str(pattern), optimizer=optimizer, timeout_ms=60_000
                    )
                    expect = oracle[name]
                    assert response["columns"] == expect["columns"], name
                    assert rows_as_tuples(response) == [
                        tuple(row) for row in expect["rows"]
                    ], name
                    assert 0.0 <= response["metrics"]["cache_hit_rate"] <= 1.0
                    with spans_lock:
                        spans.append(tuple(response["metrics"]["exec_span"]))
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            failures.append((tid, repr(exc)))

    workers = [
        threading.Thread(target=body, args=(tid,), daemon=True)
        for tid in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=180)
        assert not worker.is_alive(), "service client thread hung"
    assert failures == []
    return spans


class TestServiceDifferential:
    def test_inline_live_tier_over_the_wire(self, live_engine, workload):
        oracle = build_oracle(live_engine, workload)
        handle = start_in_thread(
            live_engine, ServiceConfig(max_inflight=4, queue_depth=16)
        )
        try:
            assert handle.service.tier == "live-finegrained"
            service_hammer(handle, workload, oracle)
        finally:
            handle.stop()

    @needs_fork
    def test_process_dispatch_over_the_wire(self, snapshot_engine, workload):
        oracle = build_oracle(snapshot_engine, workload)
        handle = start_in_thread(
            snapshot_engine,
            ServiceConfig(max_inflight=2, queue_depth=16, dispatch="process"),
        )
        try:
            assert handle.service.tier == "snapshot-lockfree"
            assert handle.service.dispatch == "process"
            service_hammer(handle, workload, oracle, threads=THREADS)
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# acceptance: overlapping execution windows at max_inflight=4
# ----------------------------------------------------------------------
def overlapping_pairs(spans):
    pairs = 0
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            a0, a1 = spans[i]
            b0, b1 = spans[j]
            if max(a0, b0) < min(a1, b1):
                pairs += 1
    return pairs


@needs_fork
def test_exec_windows_overlap_with_four_slots(snapshot_engine, workload):
    """max_inflight=4 on a snapshot engine => queries really overlap.

    Each response carries ``metrics.exec_span`` — a monotonic-clock
    ``[start, end]`` recorded around the query's execution (inside the
    worker for process dispatch; CLOCK_MONOTONIC is system-wide, so the
    spans are cross-process comparable).  With four slots and four
    concurrent clients, at least one pair of windows must intersect; a
    serializing engine lock would make every pair disjoint.
    """
    oracle = build_oracle(snapshot_engine, workload)
    handle = start_in_thread(
        snapshot_engine,
        ServiceConfig(max_inflight=4, queue_depth=16, dispatch="process"),
    )
    try:
        for attempt in range(3):
            spans = service_hammer(handle, workload, oracle, threads=4)
            assert len(spans) == 4 * len(workload)
            if overlapping_pairs(spans) > 0:
                break
        else:
            pytest.fail(f"no overlapping exec windows in 3 attempts: {spans}")
    finally:
        handle.stop()
