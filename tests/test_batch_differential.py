"""Differential property test: the scalar oracle vs the batch substrate.

The acceptance contract of the vectorized kernels: for every workload
pattern shape (paths, trees, graph queries) under every optimizer
(``dp``, ``dps``, ``greedy``) and under *both* drivers, batch mode
(``batch_size > 1`` + CenterCache) must produce the identical result set
— in fact the identical row sequence — and identical per-operator
logical counters (``rows_in``/``rows_out``/``centers_probed``/
``nodes_fetched``).  The counters are the stronger claim: batch mode
memoizes work per distinct node and per distinct centers tuple, but it
must still *charge* that work per row exactly as Algorithm 2 does.
"""

import pytest

from repro import GraphEngine
from repro.graph import xmark
from repro.query import execute_plan, execute_plan_streaming
from repro.query.physical.cache import CenterCache
from repro.workloads.patterns import PatternFactory

OPTIMIZERS = ("dp", "dps", "greedy")
BATCH_SIZE = 64  # small enough that every workload query spans many blocks


@pytest.fixture(scope="module")
def engine():
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    return GraphEngine(data.graph)


@pytest.fixture(scope="module")
def workload(engine):
    """Every Figure 4 family: 9 paths, 9 trees, 5 four-variable graphs."""
    factory = PatternFactory(engine.db.catalog, seed=11)
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


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_materializing_driver_scalar_vs_batch(engine, workload, optimizer):
    cache = CenterCache()
    for name, pattern in workload.items():
        plan = engine.plan(pattern, optimizer=optimizer).plan
        scalar = execute_plan(engine.db, plan)
        batch = execute_plan(
            engine.db, plan, batch_size=BATCH_SIZE, center_cache=cache
        )
        assert scalar.rows == batch.rows, f"{name}/{optimizer}: rows differ"
        assert op_counters(scalar.metrics) == op_counters(batch.metrics), (
            f"{name}/{optimizer}: per-operator counters differ"
        )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_streaming_driver_scalar_vs_batch(engine, workload, optimizer):
    cache = CenterCache()
    for name, pattern in workload.items():
        plan = engine.plan(pattern, optimizer=optimizer).plan
        scalar = execute_plan_streaming(engine.db, plan)
        scalar_rows = list(scalar)
        batch = execute_plan_streaming(
            engine.db, plan, batch_size=BATCH_SIZE, center_cache=cache
        )
        batch_rows = list(batch)
        assert scalar_rows == batch_rows, f"{name}/{optimizer}: rows differ"
        assert op_counters(scalar.metrics) == op_counters(batch.metrics), (
            f"{name}/{optimizer}: per-operator counters differ"
        )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_batch_without_cache_still_agrees(engine, workload, optimizer):
    """The kernels alone (no CenterCache) are already exact."""
    for name, pattern in list(workload.items())[:6]:
        plan = engine.plan(pattern, optimizer=optimizer).plan
        scalar = execute_plan(engine.db, plan)
        batch = execute_plan(engine.db, plan, batch_size=BATCH_SIZE)
        assert scalar.rows == batch.rows, f"{name}/{optimizer}"
        assert op_counters(scalar.metrics) == op_counters(batch.metrics)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_warm_cache_changes_nothing_but_speed(engine, workload, optimizer):
    """Counters and rows are cache-oblivious: a warm cache only turns
    misses into hits."""
    cache = CenterCache()
    name, pattern = next(iter(workload.items()))
    plan = engine.plan(pattern, optimizer=optimizer).plan
    cold = execute_plan(engine.db, plan, batch_size=BATCH_SIZE, center_cache=cache)
    warm = execute_plan(engine.db, plan, batch_size=BATCH_SIZE, center_cache=cache)
    assert cold.rows == warm.rows
    assert op_counters(cold.metrics) == op_counters(warm.metrics)
    assert warm.metrics.center_cache.hits >= cold.metrics.center_cache.hits


def test_tiny_batch_size_agrees(engine, workload):
    """Block boundaries must be invisible: batch_size=2 still exact."""
    name, pattern = max(workload.items(), key=lambda kv: len(str(kv[1])))
    plan = engine.plan(pattern, optimizer="dps").plan
    scalar = execute_plan(engine.db, plan)
    batch = execute_plan(engine.db, plan, batch_size=2)
    assert scalar.rows == batch.rows
    assert op_counters(scalar.metrics) == op_counters(batch.metrics)


def test_engine_level_batch_flag(engine, workload):
    """GraphEngine(batch_size=...) default and per-call override agree."""
    pattern = next(iter(workload.values()))
    scalar = engine.match(pattern, batch_size=0)
    batched = engine.match(pattern, batch_size=BATCH_SIZE)
    assert scalar.rows == batched.rows
    assert op_counters(scalar.metrics) == op_counters(batched.metrics)
