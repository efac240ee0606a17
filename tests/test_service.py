"""The always-on query service: protocol, admission control, end-to-end.

The contract under test: every row served over the wire is
byte-identical to what the library produces directly; admission is
bounded at both stages (slots, queue) with fast sheds beyond; deadlines
and row limits ride the streaming driver's truncation flags; and the
stats endpoint accounts for everything that happened.
"""

import json
import socket
import threading
import time

import pytest

from repro import GraphEngine
from repro.graph import generators
from repro.service import (
    AdmissionScheduler,
    Overloaded,
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceStats,
    encode,
    parse_request,
    percentile,
    rows_as_tuples,
    start_in_thread,
)

PATTERN = "A -> C, B -> C, C -> D, D -> E"


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_query_roundtrip(self):
        request = parse_request(
            encode({"op": "query", "id": 3, "pattern": "A -> B",
                    "limit": 5, "timeout_ms": 250, "priority": 2})
        )
        assert request.op == "query"
        assert request.id == 3
        assert request.pattern == "A -> B"
        assert request.limit == 5
        assert request.timeout_ms == 250
        assert request.priority == 2
        assert request.row_limit is None

    def test_defaults(self):
        request = parse_request(b'{"op": "query", "pattern": "A -> B"}')
        assert request.optimizer == "dps"
        assert request.limit is None and request.timeout_ms is None
        assert request.priority == 0

    @pytest.mark.parametrize("line", [
        b"not json",
        b'"just a string"',
        b'{"op": "explode"}',
        b'{"op": "query"}',                                # no pattern
        b'{"op": "query", "pattern": ""}',                 # empty pattern
        b'{"op": "query", "pattern": "A -> B", "limit": -1}',
        b'{"op": "query", "pattern": "A -> B", "limit": true}',
        b'{"op": "query", "pattern": "A -> B", "timeout_ms": -5}',
        b'{"op": "query", "pattern": "A -> B", "priority": "high"}',
    ])
    def test_bad_requests_rejected(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_non_query_ops_ignore_query_fields(self):
        request = parse_request(b'{"op": "ping", "id": "x", "limit": -9}')
        assert request.op == "ping" and request.id == "x"


# ----------------------------------------------------------------------
# admission scheduler (loop-confined state machine, tested standalone)
# ----------------------------------------------------------------------
class _Waiter:
    def __init__(self):
        self.result = None
        self._done = False

    def done(self):
        return self._done

    def set_result(self, value):
        self._done = True
        self.result = value

    def set_exception(self, err):
        self._done = True

    def cancel(self):
        self._done = True


class TestAdmissionScheduler:
    def test_slots_then_queue_then_shed(self):
        sched = AdmissionScheduler(max_inflight=2, queue_depth=1)
        assert sched.try_acquire(waiter_factory=_Waiter) is None
        assert sched.try_acquire(waiter_factory=_Waiter) is None
        queued = sched.try_acquire(waiter_factory=_Waiter)
        assert isinstance(queued, _Waiter)
        with pytest.raises(Overloaded):
            sched.try_acquire(waiter_factory=_Waiter)
        assert sched.inflight == 2 and sched.queued == 1

    def test_release_transfers_slot_to_waiter(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=2)
        sched.try_acquire(waiter_factory=_Waiter)
        waiter = sched.try_acquire(waiter_factory=_Waiter)
        sched.release()
        assert waiter.done()          # slot handed over, not freed
        assert sched.inflight == 1 and sched.queued == 0
        sched.release()
        assert sched.inflight == 0

    def test_priority_order_fifo_within_class(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=4)
        sched.try_acquire(waiter_factory=_Waiter)
        low_a = sched.try_acquire(priority=0, waiter_factory=_Waiter)
        high = sched.try_acquire(priority=5, waiter_factory=_Waiter)
        low_b = sched.try_acquire(priority=0, waiter_factory=_Waiter)
        sched.release()
        assert high.done() and not low_a.done() and not low_b.done()
        sched.release()
        assert low_a.done() and not low_b.done()  # FIFO among equals
        sched.release()
        assert low_b.done()

    def test_abandoned_waiter_skipped(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=2)
        sched.try_acquire(waiter_factory=_Waiter)
        dropped = sched.try_acquire(waiter_factory=_Waiter)
        live = sched.try_acquire(waiter_factory=_Waiter)
        dropped.cancel()
        sched.release()
        assert live.done() and live.result is None
        assert sched.inflight == 1

    def test_zero_queue_depth_sheds_immediately(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=0)
        sched.try_acquire(waiter_factory=_Waiter)
        with pytest.raises(Overloaded):
            sched.try_acquire(waiter_factory=_Waiter)

    def test_drain_returns_live_waiters(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=3)
        sched.try_acquire(waiter_factory=_Waiter)
        a = sched.try_acquire(waiter_factory=_Waiter)
        b = sched.try_acquire(waiter_factory=_Waiter)
        a.cancel()
        assert sched.drain() == [b]
        assert sched.queued == 0


class TestStats:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == 25.0
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 95) == 7.0

    def test_snapshot_accounting(self):
        stats = ServiceStats()
        stats.mark_received()
        stats.mark_received()
        stats.mark_shed()
        stats.mark_served(queue_wait_ms=1.0, exec_ms=9.0, rows=4,
                          truncated=True, cache_hits=3, cache_misses=1)
        snap = stats.snapshot()
        assert snap["received"] == 2 and snap["served"] == 1
        assert snap["shed"] == 1 and snap["shed_rate"] == 0.5
        assert snap["truncated"] == 1 and snap["rows_returned"] == 4
        assert snap["cache_hit_rate"] == 0.75
        assert snap["latency_ms"]["p50"] == 10.0


# ----------------------------------------------------------------------
# end-to-end over TCP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine():
    return GraphEngine(generators.figure1_graph())


@pytest.fixture()
def service(engine):
    handle = start_in_thread(engine, ServiceConfig(max_inflight=2, queue_depth=4))
    yield handle
    handle.stop()


class TestServiceEndToEnd:
    def test_rows_byte_identical_to_library(self, engine, service):
        direct = engine.match(PATTERN)
        host, port = service.address
        with ServiceClient(host, port) as client:
            response = client.query(PATTERN)
        assert response["columns"] == list(direct.columns)
        assert rows_as_tuples(response) == list(direct.rows)
        assert response["truncated"] is False
        assert response["stop_reason"] is None
        assert response["metrics"]["rows"] == len(direct)

    def test_all_optimizers_served(self, engine, service):
        host, port = service.address
        expected = engine.match(PATTERN).as_set()
        with ServiceClient(host, port) as client:
            for optimizer in ("dp", "dps", "greedy", "auto"):
                response = client.query(PATTERN, optimizer=optimizer)
                assert set(rows_as_tuples(response)) == expected

    def test_limit_truncates_and_flags(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            response = client.query(PATTERN, limit=1)
        assert len(response["rows"]) == 1
        assert response["truncated"] is True
        assert response["stop_reason"] == "limit"

    def test_bad_pattern_is_bad_request(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as err:
                client.query("A -> Z")  # unknown label
            assert err.value.code == "bad_request"
            with pytest.raises(ServiceError) as err:
                client.query("A -> B", optimizer="quantum")
            assert err.value.code == "bad_request"
            # the connection survives errors: next query works
            assert client.ping()

    def test_row_limit_guard_maps_to_error(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as err:
                client.query(PATTERN, row_limit=1)
            assert err.value.code == "row_limit"

    def test_malformed_line_answered_not_fatal(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            sock.sendall(encode({"op": "ping", "id": 1}))
            assert json.loads(reader.readline())["pong"] is True

    def test_pipelined_requests_matched_by_id(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=30) as sock:
            reader = sock.makefile("rb")
            for i in range(6):
                sock.sendall(encode(
                    {"op": "query", "id": f"r{i}", "pattern": PATTERN}
                ))
            seen = set()
            for _ in range(6):
                response = json.loads(reader.readline())
                assert response["ok"] is True
                seen.add(response["id"])
            assert seen == {f"r{i}" for i in range(6)}

    def test_stats_endpoint_accounts_queries(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            for _ in range(3):
                client.query(PATTERN)
            snap = client.stats()
        assert snap["served"] >= 3
        assert snap["received"] >= 3
        assert snap["latency_ms"]["p99"] >= snap["latency_ms"]["p50"] > 0
        assert snap["engine"]["plan_cache_entries"] >= 1
        assert 0.0 <= snap["engine"]["center_cache_hit_rate"] <= 1.0

    def test_overload_sheds_with_fast_reject(self, engine):
        """Saturate the slots + queue; the next arrival is shed."""
        handle = start_in_thread(
            engine, ServiceConfig(max_inflight=1, queue_depth=1)
        )
        service = handle.service
        host, port = handle.address
        try:
            # gate execution so the one in-flight query blocks in its
            # executor thread: admission state becomes deterministic
            # (there is no engine lock to hold anymore — queries only
            # serialize on admission slots)
            gate = threading.Event()
            original_execute = service._execute

            def gated_execute(request, timeout_s):
                assert gate.wait(timeout=60)
                return original_execute(request, timeout_s)

            service._execute = gated_execute
            try:
                blocked = []

                def run_blocked():
                    with ServiceClient(host, port, timeout=60) as client:
                        blocked.append(client.query(PATTERN))

                t1 = threading.Thread(target=run_blocked)  # takes the slot
                t2 = threading.Thread(target=run_blocked)  # takes the queue
                t1.start()
                deadline = time.perf_counter() + 10
                while service.scheduler.inflight < 1:
                    assert time.perf_counter() < deadline
                    time.sleep(0.01)
                t2.start()
                while service.scheduler.queued < 1:
                    assert time.perf_counter() < deadline
                    time.sleep(0.01)
                started = time.perf_counter()
                with ServiceClient(host, port, timeout=60) as client:
                    with pytest.raises(ServiceError) as err:
                        client.query(PATTERN)
                reject_s = time.perf_counter() - started
                assert err.value.code == "overloaded"
                assert reject_s < 5  # fast reject, no queueing behind work
            finally:
                gate.set()
            t1.join(timeout=60)
            t2.join(timeout=60)
            assert len(blocked) == 2  # queued work completed after release
            snap = service.stats.snapshot()
            assert snap["shed"] == 1 and snap["served"] == 2
        finally:
            handle.stop()

    def test_queue_deadline_times_out_without_execution(self, engine):
        handle = start_in_thread(
            engine, ServiceConfig(max_inflight=1, queue_depth=2)
        )
        service = handle.service
        host, port = handle.address
        try:
            gate = threading.Event()
            original_execute = service._execute

            def gated_execute(request, timeout_s):
                assert gate.wait(timeout=60)
                return original_execute(request, timeout_s)

            service._execute = gated_execute
            release = threading.Event()

            def run_blocked():
                with ServiceClient(host, port, timeout=60) as client:
                    client.query(PATTERN)

            holder = threading.Thread(target=run_blocked)
            holder.start()
            deadline = time.perf_counter() + 10
            while service.scheduler.inflight < 1:
                assert time.perf_counter() < deadline
                time.sleep(0.01)

            timed_out = {}

            def run_deadlined():
                with ServiceClient(host, port, timeout=60) as client:
                    try:
                        client.query(PATTERN, timeout_ms=100)
                    except ServiceError as err:
                        timed_out["code"] = err.code
                    finally:
                        release.set()

            waiter = threading.Thread(target=run_deadlined)
            waiter.start()
            # hold the slot well past the queued query's 100ms deadline
            time.sleep(0.5)
            gate.set()
            assert release.wait(timeout=60)
            holder.join(timeout=60)
            waiter.join(timeout=60)
            assert timed_out["code"] == "timeout"
            assert service.stats.snapshot()["timeouts"] >= 1
        finally:
            gate.set()
            handle.stop()


class TestServeCLI:
    def test_serve_subcommand_end_to_end(self, tmp_path):
        import subprocess
        import sys as _sys

        from repro.db.persist import save_database

        engine = GraphEngine(generators.figure1_graph())
        db_path = tmp_path / "fig1.snap"
        save_database(engine.db, str(db_path), format="snapshot")
        expected = engine.match(PATTERN)

        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", str(db_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving" in banner
            port = int(banner.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                assert client.ping()
                response = client.query(PATTERN)
                assert rows_as_tuples(response) == list(expected.rows)
                assert client.stats()["served"] >= 1
        finally:
            proc.terminate()
            proc.wait(timeout=30)
