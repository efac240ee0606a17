"""Service failure containment: dead pool workers and stop() under load.

* A SIGKILL of every process-dispatch worker must not poison the
  service: the next query rebuilds the pool once, is retried on it, and
  returns the rows the inline engine returns; ``stats`` counts the
  rebuild as ``pool_restarts``.  A pool that breaks again on the retry
  answers ``internal`` — there is no retry loop.
* ``ServiceHandle.stop()`` with an idle client still connected tears
  the connection down before the event loop closes: nothing is logged
  by asyncio and no coroutine is left pending.
"""

import gc
import logging
import os
import signal
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import GraphEngine
from repro.db.persist import save_database
from repro.graph import generators
from repro.query import WorkerPool, fork_available
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    rows_as_tuples,
    start_in_thread,
)

PATTERN = "A -> C, B -> C, C -> D, D -> E"

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process dispatch needs fork"
)


@pytest.fixture(scope="module")
def inline_engine():
    return GraphEngine(generators.figure1_graph())


@pytest.fixture()
def process_service(inline_engine, tmp_path):
    path = str(tmp_path / "fig1.snap")
    save_database(inline_engine.db, path, format="snapshot")
    handle = start_in_thread(
        GraphEngine.from_snapshot(path),
        ServiceConfig(max_inflight=2, dispatch="process"),
    )
    yield handle
    handle.stop()


def worker_pids(handle):
    return list(handle.service._pool._executor._processes)


@needs_fork
def test_killed_workers_are_replaced_and_the_query_retried(
    inline_engine, process_service
):
    expected = inline_engine.match(PATTERN)
    host, port = process_service.address
    with ServiceClient(host, port, timeout=60) as client:
        assert rows_as_tuples(client.query(PATTERN)) == list(expected.rows)
        pids = worker_pids(process_service)
        assert pids
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        # both slots hit the broken pool at once: one rebuild between them
        responses = []

        def query():
            with ServiceClient(host, port, timeout=60) as other:
                responses.append(other.query(PATTERN))

        threads = [threading.Thread(target=query) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(responses) == 2
        for response in responses:
            assert response["columns"] == list(expected.columns)
            assert rows_as_tuples(response) == list(expected.rows)
        stats = client.stats()
        assert stats["pool_restarts"] == 1
        assert stats["errors"] == 0
        # the rebuilt pool keeps serving without another restart
        assert rows_as_tuples(client.query(PATTERN)) == list(expected.rows)
        assert client.stats()["pool_restarts"] == 1
    assert not set(pids) & set(worker_pids(process_service))


@needs_fork
def test_a_second_break_answers_internal(process_service, monkeypatch):
    def broken(self, payload):
        raise BrokenProcessPool("worker died")

    monkeypatch.setattr(WorkerPool, "submit_query", broken)
    host, port = process_service.address
    with ServiceClient(host, port, timeout=60) as client:
        with pytest.raises(ServiceError) as err:
            client.query(PATTERN)
        assert err.value.code == "internal"
        assert "BrokenProcessPool" in str(err.value)
        stats = client.stats()
    # one rebuild, one retry, then the error: no loop
    assert stats["pool_restarts"] == 1
    assert stats["errors"] == 1


def test_stop_with_a_connected_client_is_clean(
    inline_engine, caplog, monkeypatch
):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    caplog.set_level(logging.DEBUG, logger="asyncio")
    handle = start_in_thread(inline_engine, ServiceConfig())
    client = ServiceClient(*handle.address, timeout=60)
    try:
        assert client.ping()
        handle.stop()
        gc.collect()
    finally:
        client.close()
    errors = [
        record.getMessage() for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.WARNING
    ]
    assert errors == []
    assert [repr(u.exc_value) for u in unraisable] == []
