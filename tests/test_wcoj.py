"""WCOJ differential and structural tests (multiway R-joins).

The acceptance contract of the worst-case-optimal path: on cyclic
patterns every optimizer — left-deep ``dp``/``dps``/``greedy`` and the
multiway ``wcoj`` — produces the identical row set under both drivers,
every batch substrate and live/snapshot databases; per-op counters of the multiway operators match the scalar
sequential oracle everywhere.  Acyclic patterns must keep today's plans,
rows and counters bit for bit (``auto``/``wcoj`` route them to DPS).

Structural coverage: :class:`~repro.query.JoinGraph` shape queries,
``Plan.validate`` on multiway step sequences, and the plancheck
diagnostics for malformed multiway plans.
"""

import pytest

from repro import GraphEngine
from repro.db.persist import save_database
from repro.graph import xmark
from repro.query import (
    JoinGraph,
    MultiwaySeed,
    MultiwayStep,
    Plan,
    SeedJoin,
    Side,
    optimize_auto,
    optimize_dps,
    execute_plan,
    execute_plan_streaming,
    optimize_wcoj,
    parse_pattern,
)
from repro.query.pattern import PatternError
from repro.analysis import check_plan
from repro.workloads.patterns import PatternFactory

OPTIMIZERS = ("dp", "dps", "greedy", "wcoj")


@pytest.fixture(scope="module")
def engine():
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    return GraphEngine(data.graph)


@pytest.fixture(scope="module")
def snapshot_engine(engine, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("wcojsnap") / "db.snap")
    save_database(engine.db, path)
    return GraphEngine.from_snapshot(path)


@pytest.fixture(scope="module")
def cyclic_workload(engine):
    """Triangle, diamond, 4-clique and cycle-with-tail over XMark."""
    factory = PatternFactory(engine.db.catalog, seed=11)
    return factory.cyclic_patterns(
        ("triangle", "diamond", "clique4", "cycle-tail")
    )


def op_counters(metrics):
    return [
        (op.operator, op.rows_in, op.rows_out, op.centers_probed, op.nodes_fetched)
        for op in metrics.operators
    ]


# ----------------------------------------------------------------------
# JoinGraph structure
# ----------------------------------------------------------------------
class TestJoinGraph:
    def test_acyclic_shapes(self):
        for text in ("A -> B", "A -> B, B -> C", "A -> B, A -> C, B -> D"):
            graph = JoinGraph(parse_pattern(text))
            assert graph.cycle_rank == 0
            assert not graph.is_cyclic

    def test_cyclic_shapes(self):
        triangle = JoinGraph(parse_pattern("A -> B, B -> C, A -> C"))
        assert triangle.cycle_rank == 1 and triangle.is_cyclic
        diamond = JoinGraph(parse_pattern("A -> B, A -> C, B -> D, C -> D"))
        assert diamond.cycle_rank == 1 and diamond.is_cyclic

    def test_parallel_conditions_count_as_a_two_cycle(self):
        graph = JoinGraph(parse_pattern("x:A -> y:B, y:B -> x:A"))
        assert graph.is_cyclic
        assert graph.bridges() == frozenset()

    def test_articulation_and_bridges_on_cycle_with_tail(self):
        pattern = parse_pattern("A -> B, A -> C, B -> C, C -> D")
        graph = JoinGraph(pattern)
        assert graph.is_cyclic
        assert graph.articulation_points() == frozenset({"C"})
        assert graph.bridges() == frozenset({("C", "D")})
        assert graph.cyclic_core() == frozenset({"A", "B", "C"})

    def test_tree_is_all_bridges(self):
        graph = JoinGraph(parse_pattern("A -> B, B -> C"))
        assert graph.bridges() == frozenset({("A", "B"), ("B", "C")})
        assert graph.cyclic_core() == frozenset()

    def test_constraint_keying(self):
        graph = JoinGraph(parse_pattern("A -> B, B -> C, A -> C"))
        # every incident constraint is keyed to bind the variable itself
        for var in graph.variables:
            for condition, side in graph.incident_constraints(var):
                assert side.fetched_var(condition) == var
        toward = graph.constraints_toward("C", ["A", "B"])
        assert set(toward) == {(("B", "C"), Side.OUT), (("A", "C"), Side.OUT)}
        # nothing binds C from only-A without the B condition
        assert graph.constraints_toward("C", ["A"]) == ((("A", "C"), Side.OUT),)

    def test_degree_and_neighbors(self):
        graph = JoinGraph(parse_pattern("A -> B, B -> C, A -> C"))
        assert graph.degree("A") == 2
        assert graph.neighbors("A") == frozenset({"B", "C"})


# ----------------------------------------------------------------------
# algebra validation + plancheck
# ----------------------------------------------------------------------
class TestMultiwayValidation:
    def _triangle(self):
        return parse_pattern("A -> B, B -> C, A -> C")

    def test_wcoj_plan_validates_and_passes_plancheck(
        self, engine, cyclic_workload
    ):
        for name, pattern in cyclic_workload.items():
            optimized = engine.plan(pattern, optimizer="wcoj")
            steps = optimized.plan.steps
            assert isinstance(steps[0], MultiwaySeed), name
            assert all(isinstance(s, MultiwayStep) for s in steps[1:]), name
            errors = [
                d for d in check_plan(optimized.plan, db=engine.db)
                if d.severity.value == "error"
            ]
            assert errors == [], name

    def test_mixed_paradigm_rejected_by_validate(self):
        pattern = self._triangle()
        graph = JoinGraph(pattern)
        steps = [
            MultiwaySeed("A", graph.incident_constraints("A")),
            SeedJoin(("B", "C")),
        ]
        with pytest.raises(PatternError):
            Plan(pattern, steps).validate()

    def test_mixed_paradigm_reported_by_plancheck(self):
        pattern = self._triangle()
        graph = JoinGraph(pattern)
        steps = [
            MultiwaySeed("A", graph.incident_constraints("A")),
            SeedJoin(("B", "C")),
        ]
        rules = {d.rule for d in check_plan(Plan(pattern, steps))}
        assert "plan/mixed-paradigm" in rules

    def test_constraint_must_bind_the_step_variable(self):
        with pytest.raises(PatternError):
            MultiwayStep("B", ((("A", "C"), Side.OUT),))
        with pytest.raises(PatternError):
            MultiwaySeed("B", ((("A", "C"), Side.OUT),))

    def test_step_requires_constraints(self):
        with pytest.raises(PatternError):
            MultiwayStep("B", ())

    def test_unbound_scan_rejected(self):
        pattern = self._triangle()
        steps = [
            MultiwaySeed("A"),
            # binds C from B, but B is not bound yet
            MultiwayStep("C", ((("B", "C"), Side.OUT),)),
            MultiwayStep("B", ((("A", "B"), Side.OUT),)),
        ]
        with pytest.raises(PatternError):
            Plan(pattern, steps).validate()

    def test_uncovered_condition_rejected(self):
        pattern = self._triangle()
        steps = [
            MultiwaySeed("A"),
            MultiwayStep("B", ((("A", "B"), Side.OUT),)),
            # drops B -> C entirely
            MultiwayStep("C", ((("A", "C"), Side.OUT),)),
        ]
        with pytest.raises(PatternError):
            Plan(pattern, steps).validate()
        rules = {d.rule for d in check_plan(Plan(pattern, steps))}
        assert "plan/uncovered-condition" in rules

    def test_rebind_reported(self):
        pattern = self._triangle()
        steps = [
            MultiwaySeed("A"),
            MultiwayStep("B", ((("A", "B"), Side.OUT),)),
            MultiwayStep("C", ((("A", "C"), Side.OUT), (("B", "C"), Side.OUT))),
            MultiwayStep("B", ((("A", "B"), Side.OUT),)),
        ]
        rules = {d.rule for d in check_plan(Plan(pattern, steps))}
        assert "plan/rebind" in rules
        assert "plan/double-covered" in rules

    def test_describe_renders_multiway_steps(self, engine, cyclic_workload):
        pattern = cyclic_workload["triangle"]
        text = engine.explain(pattern, optimizer="wcoj")
        assert "MSEED" in text and "MJOIN" in text


# ----------------------------------------------------------------------
# optimizer routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_acyclic_patterns_keep_identical_dps_plans(self, engine):
        factory = PatternFactory(engine.db.catalog, seed=11)
        model_patterns = {}
        model_patterns.update(factory.figure4_paths())
        model_patterns.update(factory.figure4_trees())
        from repro.query import CostModel

        for name, pattern in model_patterns.items():
            model = CostModel(engine.db.catalog, pattern, engine.cost_params)
            baseline = optimize_dps(pattern, model)
            for optimize in (optimize_wcoj, optimize_auto):
                routed = optimize(pattern, model)
                assert routed.plan.steps == baseline.plan.steps, name
                assert routed.estimated_cost == baseline.estimated_cost, name

    def test_cyclic_patterns_get_multiway_plans(self, engine, cyclic_workload):
        for name, pattern in cyclic_workload.items():
            plan = engine.plan(pattern, optimizer="wcoj").plan
            assert isinstance(plan.steps[0], MultiwaySeed), name
            assert len(plan.steps) == len(pattern.variables), name

    def test_acyclic_rows_and_counters_unchanged(self, engine):
        factory = PatternFactory(engine.db.catalog, seed=11)
        pattern = factory.figure4_paths()["P1"]
        via_dps = engine.match(pattern, optimizer="dps")
        via_auto = engine.match(pattern, optimizer="auto")
        assert sorted(via_auto.rows) == sorted(via_dps.rows)
        assert op_counters(via_auto.metrics) == op_counters(via_dps.metrics)


# ----------------------------------------------------------------------
# the differential suite: cyclic x optimizers x drivers x substrates
# ----------------------------------------------------------------------
class TestCyclicDifferential:
    def test_all_optimizers_agree_under_both_drivers(
        self, engine, cyclic_workload
    ):
        for name, pattern in cyclic_workload.items():
            oracle = None
            for optimizer in OPTIMIZERS:
                optimized = engine.plan(pattern, optimizer=optimizer)
                materialized = execute_plan(engine.db, optimized.plan)
                streamed = set(execute_plan_streaming(engine.db, optimized.plan))
                assert streamed == materialized.as_set(), (name, optimizer)
                if oracle is None:
                    oracle = materialized.as_set()
                else:
                    assert materialized.as_set() == oracle, (name, optimizer)

    def test_batched_counters_match_scalar_oracle(self, engine, cyclic_workload):
        for name, pattern in cyclic_workload.items():
            scalar = engine.match(pattern, optimizer="wcoj", batch_size=0)
            batched = engine.match(pattern, optimizer="wcoj", batch_size=64)
            assert sorted(batched.rows) == sorted(scalar.rows), name
            assert op_counters(batched.metrics) == op_counters(scalar.metrics), name

    def test_snapshot_native_counters_match_live(
        self, engine, snapshot_engine, cyclic_workload
    ):
        assert snapshot_engine.db.mmap_views
        for name, pattern in cyclic_workload.items():
            live = engine.match(pattern, optimizer="wcoj", batch_size=64)
            native = snapshot_engine.match(
                pattern, optimizer="wcoj", batch_size=64
            )
            assert sorted(native.rows) == sorted(live.rows), name
            assert op_counters(native.metrics) == op_counters(live.metrics), name

    def test_wcoj_verifies_and_streams(self, engine, cyclic_workload):
        for name, pattern in cyclic_workload.items():
            full = engine.match(pattern, optimizer="wcoj", verify=True)
            streamed = sorted(engine.match_iter(pattern, optimizer="wcoj"))
            assert streamed == sorted(full.rows), name

    def test_metrics_invariants_hold(self, engine, cyclic_workload):
        for name, pattern in cyclic_workload.items():
            result = engine.match(pattern, optimizer="wcoj")
            for op in result.metrics.operators:
                assert op.rows_out >= 0 and op.rows_in >= 0, (name, op)
            seed = result.metrics.operators[0]
            assert seed.rows_out <= seed.rows_in, (name, seed)
