"""Differential property test: one operator layer, two drivers.

The acceptance contract of the physical-operator refactor: for every
workload pattern shape (paths, trees, graph queries) under every
optimizer (``dp``, ``dps``, ``greedy``), the materializing and streaming
drivers must produce the *identical result set* and — because Algorithm
1/2 logic now exists exactly once — *identical per-operator metrics*
(``rows_in``/``rows_out``/``centers_probed``/``nodes_fetched``).
"""

import pytest

from repro import GraphEngine
from repro.graph import xmark
from repro.query import execute_plan, execute_plan_streaming
from repro.workloads.patterns import PatternFactory

OPTIMIZERS = ("dp", "dps", "greedy")


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
def test_drivers_agree_on_every_workload_pattern(engine, workload, optimizer):
    for name, pattern in workload.items():
        optimized = engine.plan(pattern, optimizer=optimizer)
        materialized = execute_plan(engine.db, optimized.plan)
        stream = execute_plan_streaming(engine.db, optimized.plan)
        streamed_rows = list(stream)

        assert set(streamed_rows) == materialized.as_set(), (
            f"{name} [{optimizer}]: drivers disagree on the result set"
        )
        assert len(streamed_rows) == len(set(streamed_rows)), (
            f"{name} [{optimizer}]: streaming emitted duplicates"
        )
        assert op_counters(stream.metrics) == op_counters(materialized.metrics), (
            f"{name} [{optimizer}]: per-operator metrics diverge"
        )
        assert (
            stream.metrics.peak_temporal_rows
            == materialized.metrics.peak_temporal_rows
        ), f"{name} [{optimizer}]: peak intermediate size diverges"
        assert stream.metrics.result_rows == materialized.metrics.result_rows


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_metrics_invariants_hold_under_both_drivers(engine, workload, optimizer):
    """rows_out <= rows_in on every operator, one entry per plan step."""
    for name, pattern in workload.items():
        optimized = engine.plan(pattern, optimizer=optimizer)
        result = execute_plan(engine.db, optimized.plan)
        assert len(result.metrics.operators) == len(optimized.plan.steps)
        for op in result.metrics.operators:
            assert op.rows_in >= 0 and op.rows_out >= 0
            if op.operator.startswith("fetch"):
                # Fetch is the one expanding operator: each input row may
                # produce many partners, but never more than it examined
                assert op.rows_out <= op.nodes_fetched, (
                    f"{name} [{optimizer}] {op.operator}: emitted more rows "
                    "than subcluster nodes examined"
                )
            else:
                # scans, HPSJ, Filter and Selection only ever prune/dedup
                assert op.rows_out <= op.rows_in, (
                    f"{name} [{optimizer}] {op.operator}: "
                    f"rows_out {op.rows_out} > rows_in {op.rows_in}"
                )


def test_streaming_supports_row_limit(engine, workload):
    """The streaming driver enforces the same execution guard."""
    from repro.query.algebra import RowLimitExceeded

    # pick the workload pattern with the largest peak intermediate
    def peak(pattern):
        optimized = engine.plan(pattern, optimizer="dps")
        return execute_plan(engine.db, optimized.plan).metrics.peak_temporal_rows

    name, pattern = max(workload.items(), key=lambda kv: peak(kv[1]))
    optimized = engine.plan(pattern, optimizer="dps")
    biggest = peak(pattern)
    assert biggest > 1, f"workload pattern {name} too small to guard"
    with pytest.raises(RowLimitExceeded):
        list(execute_plan_streaming(engine.db, optimized.plan, row_limit=biggest - 1))
    with pytest.raises(RowLimitExceeded):
        execute_plan(engine.db, optimized.plan, row_limit=biggest - 1)


def test_streaming_supports_verify(engine):
    """verify=True runs the static plan checker under both drivers."""
    from repro.analysis.plancheck import PlanVerificationError
    from repro.query.algebra import FilterStep, Plan, SeedJoin, Side
    from repro.query.parser import parse_pattern

    pattern = parse_pattern("person -> watch, watch -> open_auction")
    optimized = engine.plan(pattern, optimizer="dps")
    # a well-formed plan passes and streams normally
    rows = list(
        execute_plan_streaming(engine.db, optimized.plan, limit=3, verify=True)
    )
    assert len(rows) <= 3

    # a hand-forged broken plan (unfetched filter) fails verification
    # before any row is produced, exactly like the materializing driver
    broken = Plan(
        pattern,
        [
            SeedJoin(pattern.conditions[0]),
            FilterStep(((pattern.conditions[1], Side.OUT),)),
        ],
    )
    with pytest.raises(PlanVerificationError):
        execute_plan_streaming(engine.db, broken, verify=True)
    with pytest.raises(PlanVerificationError):
        execute_plan(engine.db, broken, verify=True)
