"""``GraphEngine.match`` is the drained stream, pinned to the paper's driver.

``match`` answers through the streaming driver; :func:`execute_plan`, the
paper's HPSJ+ driver that stores every intermediate into a temporal
table, stays the I/O model the figure benchmarks call explicitly.  For
Figure 4 and cyclic patterns under ``dp``/``dps``/``auto``, on a live and
a snapshot-backed engine, the two must agree on columns, rows (in
order), per-operator counters, ``peak_temporal_rows`` and
``result_rows``; the ``row_limit`` and ``verify`` guards must fire alike;
and a ``match`` must leave the simulated disk untouched.
"""

import pytest

from repro import GraphEngine
from repro.analysis import PlanVerificationError
from repro.db.persist import save_database
from repro.graph import xmark
from repro.query import (
    FilterStep,
    OptimizedPlan,
    Plan,
    RowLimitExceeded,
    SeedJoin,
    Side,
    execute_plan,
    parse_pattern,
)
from repro.workloads.patterns import PatternFactory

OPTIMIZERS = ("dp", "dps", "auto")


@pytest.fixture(scope="module")
def live_engine():
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    return GraphEngine(data.graph)


@pytest.fixture(scope="module")
def snapshot_engine(live_engine, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("matchsnap") / "db.snap")
    save_database(live_engine.db, path)
    return GraphEngine.from_snapshot(path)


@pytest.fixture(scope="module")
def workload(live_engine):
    """Figure 4 paths, trees and 4-variable graphs, plus cyclic shapes."""
    factory = PatternFactory(live_engine.db.catalog, seed=11)
    patterns = {}
    patterns.update(factory.figure4_paths())
    patterns.update(factory.figure4_trees())
    patterns.update(factory.figure4_queries(4))
    patterns.update(
        factory.cyclic_patterns(("triangle", "diamond", "clique4", "cycle-tail"))
    )
    return patterns


def op_counters(metrics):
    return [
        (op.operator, op.rows_in, op.rows_out, op.centers_probed, op.nodes_fetched)
        for op in metrics.operators
    ]


def materialized(engine, pattern, optimizer, **kwargs):
    plan = engine.plan(pattern, optimizer=optimizer).plan
    return execute_plan(
        engine.db, plan, center_cache=engine.center_cache, **kwargs
    )


@pytest.mark.parametrize("kind", ("live", "snapshot"))
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_match_equals_materializing_driver(
    request, monkeypatch, kind, optimizer, workload
):
    engine = request.getfixturevalue(f"{kind}_engine")
    disk = engine.db.pool.disk
    allocations = []
    allocate = disk.allocate
    monkeypatch.setattr(
        disk, "allocate", lambda: allocations.append(1) or allocate()
    )
    for name, pattern in workload.items():
        # the reference run also opens any base table a snapshot loads lazily
        want = materialized(engine, pattern, optimizer)
        pages, allocated = disk.page_count, len(allocations)
        got = engine.match(pattern, optimizer=optimizer)
        # the mechanism: no temporal-table page reached the disk
        assert len(allocations) == allocated, f"{name} [{optimizer}] spilled"
        assert disk.page_count == pages, f"{name} [{optimizer}] spilled"
        materialized(engine, pattern, optimizer)
        assert len(allocations) > allocated
        assert disk.page_count == pages, f"{name} [{optimizer}] leaked pages"

        assert got.plan is engine.plan(pattern, optimizer=optimizer).plan
        assert got.columns == want.columns
        assert got.rows == want.rows, f"{name} [{optimizer}]: rows diverge"
        assert op_counters(got.metrics) == op_counters(want.metrics), name
        assert got.metrics.peak_temporal_rows == want.metrics.peak_temporal_rows
        assert got.metrics.result_rows == want.metrics.result_rows == len(got)
        assert not got.metrics.truncated
        assert got.metrics.io is not None and got.metrics.logical_io > 0


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_row_limit_fires_alike(live_engine, workload, optimizer):
    guarded = 0
    for name, pattern in workload.items():
        full = materialized(live_engine, pattern, optimizer)
        biggest = max(op.rows_out for op in full.metrics.operators)
        if biggest <= 1:
            continue
        guarded += 1
        with pytest.raises(RowLimitExceeded):
            live_engine.match(pattern, optimizer=optimizer, row_limit=biggest - 1)
        with pytest.raises(RowLimitExceeded):
            materialized(live_engine, pattern, optimizer, row_limit=biggest - 1)
        at_limit = live_engine.match(
            pattern, optimizer=optimizer, row_limit=biggest
        )
        assert at_limit.rows == full.rows, name
    assert guarded > 0


def test_verify_fires_alike(live_engine, monkeypatch):
    pattern = parse_pattern("person -> watch, watch -> open_auction")
    assert len(live_engine.match(pattern, verify=True)) == len(
        materialized(live_engine, pattern, "dps", verify=True)
    )
    # a forged plan with an unfetched filter fails verification in both
    broken = Plan(
        pattern,
        [
            SeedJoin(pattern.conditions[0]),
            FilterStep(((pattern.conditions[1], Side.OUT),)),
        ],
    )
    monkeypatch.setattr(
        live_engine, "plan",
        lambda *args, **kwargs: OptimizedPlan(broken, 0.0, 0.0),
    )
    with pytest.raises(PlanVerificationError):
        live_engine.match(pattern, verify=True)
    with pytest.raises(PlanVerificationError):
        execute_plan(live_engine.db, broken, verify=True)


def test_reset_counters_flag(live_engine):
    pattern = "person -> watch, watch -> open_auction"
    live_engine.match(pattern)
    kept = live_engine.db.stats.logical_reads
    assert kept > 0
    live_engine.match(pattern, reset_counters=False)
    assert live_engine.db.stats.logical_reads > kept
    live_engine.match(pattern)
    assert live_engine.db.stats.logical_reads <= kept
