"""Differential suite for mmap-native execution and snapshot-open workers.

Two acceptance contracts of the mmap-native read path:

* **representation invisibility** — a views-enabled snapshot engine
  (operators addressing zero-copy slices straight into the mapping) must
  produce rows and per-operator counters *byte-identical* to both the
  tuple-materializing snapshot engine (``use_views=False``, the oracle)
  and the originally built database, across every Figure 4 pattern
  family, both optimizers and every driver;
* **zero decode** — native batch execution never runs the delta/tuple
  decode path: ``decode_stats`` stays exactly zero while the oracle
  decodes hundreds of rows on the same workload.

Plus the worker-pool contract: whole queries run on the service's
process pool over a snapshot-backed database (workers re-opening the
snapshot file by descriptor — nothing index-sized pickled or inherited)
return exactly what ``match_iter`` returns in-process, and
``Snapshot.close()`` refuses while such a pool is alive.
"""

import pytest

from repro import GraphEngine
from repro.db.persist import load_database, save_database
from repro.graph import xmark
from repro.query import (
    WorkerPool,
    execute_plan,
    execute_plan_streaming,
    fork_available,
)
from repro.storage.snapshot import SnapshotError
from repro.workloads.patterns import PatternFactory

OPTIMIZERS = ("dp", "dps")

BATCH = 64

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the worker pool needs fork"
)


@pytest.fixture(scope="module")
def built_engine():
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    return GraphEngine(data.graph)


@pytest.fixture(scope="module")
def snap_path(built_engine, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("native") / "db.snap")
    save_database(built_engine.db, path)
    return path


@pytest.fixture(scope="module")
def native_engine(snap_path):
    """Views enabled (the default on a raw-runs snapshot)."""
    engine = GraphEngine.from_database(load_database(snap_path))
    assert engine.db.mmap_views
    return engine


@pytest.fixture(scope="module")
def oracle_engine(snap_path):
    """Same snapshot, tuple-materializing path: the differential oracle."""
    engine = GraphEngine.from_database(
        load_database(snap_path, use_views=False)
    )
    assert not engine.db.mmap_views
    return engine


@pytest.fixture(scope="module")
def workload(built_engine):
    factory = PatternFactory(built_engine.db.catalog, seed=11)
    patterns = {}
    patterns.update(factory.figure4_paths())
    patterns.update(factory.figure4_trees())
    patterns.update(factory.figure4_queries(4))
    return patterns


def op_counters(metrics):
    return [
        (op.operator, op.rows_in, op.rows_out, op.centers_probed, op.nodes_fetched)
        for op in metrics.operators
    ]


# ----------------------------------------------------------------------
# native slices vs materialized tuples vs the built database
# ----------------------------------------------------------------------
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_native_batch_matches_oracle_and_built(
    built_engine, native_engine, oracle_engine, workload, optimizer
):
    for name, pattern in workload.items():
        built = built_engine.match(pattern, optimizer=optimizer, batch_size=BATCH)
        oracle = oracle_engine.match(pattern, optimizer=optimizer, batch_size=BATCH)
        native = native_engine.match(pattern, optimizer=optimizer, batch_size=BATCH)
        assert native.rows == oracle.rows == built.rows, (
            f"{name} [{optimizer}]: native batch rows diverge"
        )
        assert (
            op_counters(native.metrics)
            == op_counters(oracle.metrics)
            == op_counters(built.metrics)
        ), f"{name} [{optimizer}]: native batch per-op counters diverge"


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_native_drivers_match_oracle(
    native_engine, oracle_engine, workload, optimizer
):
    """Materializing and streaming drivers on the native engine."""
    for name, pattern in workload.items():
        plan = native_engine.plan(pattern, optimizer=optimizer).plan
        oracle_plan = oracle_engine.plan(pattern, optimizer=optimizer).plan
        assert plan.describe() == oracle_plan.describe()

        oracle = execute_plan(oracle_engine.db, oracle_plan, batch_size=BATCH)
        native = execute_plan(native_engine.db, plan, batch_size=BATCH)
        assert native.rows == oracle.rows
        assert op_counters(native.metrics) == op_counters(oracle.metrics)

        native_stream = execute_plan_streaming(
            native_engine.db, plan, batch_size=BATCH
        )
        native_rows = list(native_stream)
        assert native_rows == oracle.rows, (
            f"{name} [{optimizer}]: native streamed rows diverge"
        )
        assert op_counters(native_stream.metrics) == op_counters(oracle.metrics)


def test_native_execution_decodes_nothing(snap_path, workload):
    """The zero-copy proof: decode_stats stays exactly zero natively."""
    native = GraphEngine.from_database(load_database(snap_path))
    oracle = GraphEngine.from_database(load_database(snap_path, use_views=False))
    for pattern in workload.values():
        native.match(pattern, batch_size=BATCH)
        oracle.match(pattern, batch_size=BATCH)
    assert native.db.join_index.snapshot.decode_stats == {
        "code_rows": 0, "wtable_pairs": 0, "subcluster_runs": 0,
    }
    # the same workload on the materializing path decodes plenty — the
    # comparison above is not vacuous
    oracle_stats = oracle.db.join_index.snapshot.decode_stats
    assert oracle_stats["code_rows"] > 0
    assert oracle_stats["wtable_pairs"] > 0
    assert oracle_stats["subcluster_runs"] > 0


def test_scalar_path_stays_on_tuples(native_engine):
    """Without batching there is no native routing: mmap_native is off
    and the scalar oracle semantics are untouched."""
    from repro.query.pattern import GraphPattern
    from repro.query.physical.context import ExecutionContext

    pattern = GraphPattern.build(
        {"x": "person", "y": "watch"}, [("x", "y")]
    )
    ctx = ExecutionContext(db=native_engine.db, pattern=pattern)
    assert not ctx.mmap_native
    ctx_batched = ExecutionContext(
        db=native_engine.db, pattern=pattern, batch_size=BATCH
    )
    assert ctx_batched.mmap_native


# ----------------------------------------------------------------------
# snapshot-open-in-worker: whole queries vs the in-process stream
# ----------------------------------------------------------------------
@needs_fork
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_pooled_queries_match_match_iter(snap_path, workload, optimizer):
    # a fresh engine: its plan cache holds only plans parsed from the
    # same text the workers parse, so the column orders line up
    engine = GraphEngine.from_database(load_database(snap_path))
    pool = WorkerPool(engine.db, 2)
    try:
        for name, pattern in workload.items():
            text = str(pattern)
            stream = engine.match_iter(text, optimizer=optimizer)
            expected = list(stream)
            columns, rows, truncated, stop_reason, _, _ = pool.submit_query(
                (text, optimizer, None, None, None, None)
            ).result()
            assert rows == expected, f"{name} [{optimizer}]: worker rows diverge"
            assert columns == stream.columns, (
                f"{name} [{optimizer}]: worker columns diverge"
            )
            assert (truncated, stop_reason) == (False, None)
    finally:
        pool.shutdown()


def test_pool_requires_a_snapshot_backed_database(built_engine):
    with pytest.raises(ValueError, match="snapshot-backed"):
        WorkerPool(built_engine.db, 2)


# ----------------------------------------------------------------------
# pool lifetime vs Snapshot.close()
# ----------------------------------------------------------------------
@needs_fork
def test_close_guard_names_the_live_pool(snap_path):
    db = load_database(snap_path)
    snapshot = db.join_index.snapshot
    pool = WorkerPool(db, 2)
    try:
        with pytest.raises(SnapshotError, match=r"WorkerPool\(process"):
            snapshot.close()
        assert not snapshot.closed
    finally:
        pool.shutdown()
    snapshot.close()
    assert snapshot.closed


def test_descriptor_goes_stale_after_rebuild(snap_path):
    db = load_database(snap_path)
    assert db.snapshot_descriptor() is not None
    db.rebuild_join_index()
    # live index now: nothing to ship, the pool must refuse cleanly
    assert db.snapshot_descriptor() is None
    with pytest.raises(ValueError, match="snapshot-backed"):
        WorkerPool(db, 2)
