"""Focused tests on DPS's move machinery (paper Section 4.2 semantics)."""

import pytest

from repro.db.database import GraphDatabase
from repro.graph.digraph import DiGraph
from repro.graph.generators import anti_correlated_star, figure1_graph
from repro.query.algebra import (
    FetchStep,
    FilterStep,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from repro.query.costmodel import CostModel, CostParams
from repro.query import execute_plan
from repro.query.optimizer_dps import _applicable_filters, optimize_dps
from repro.query.parser import parse_pattern


@pytest.fixture(scope="module")
def db():
    return GraphDatabase(figure1_graph())


def model_for(db, pattern):
    return CostModel(db.catalog, pattern, CostParams())


class TestApplicableFilters:
    def test_groups_same_source_conditions(self):
        pattern = parse_pattern("C -> D, C -> E, B -> C")
        keys = _applicable_filters(
            pattern, "C", Side.OUT, frozenset(), frozenset(), frozenset({"C"})
        )
        assert set(keys) == {(("C", "D"), Side.OUT), (("C", "E"), Side.OUT)}

    def test_in_side_groups_same_target(self):
        pattern = parse_pattern("A -> C, B -> C, C -> D")
        keys = _applicable_filters(
            pattern, "C", Side.IN, frozenset(), frozenset(), frozenset({"C"})
        )
        assert set(keys) == {(("A", "C"), Side.IN), (("B", "C"), Side.IN)}

    def test_skips_done_and_filtered(self):
        pattern = parse_pattern("C -> D, C -> E")
        keys = _applicable_filters(
            pattern,
            "C",
            Side.OUT,
            frozenset({("C", "D")}),                      # done
            frozenset({(("C", "E"), Side.OUT)}),          # already filtered
            frozenset({"C", "D"}),
        )
        assert keys == ()

    def test_skips_conditions_to_bound_vars(self):
        """Both-endpoints-bound conditions go through Selection-moves."""
        pattern = parse_pattern("C -> D, C -> E")
        keys = _applicable_filters(
            pattern, "C", Side.OUT, frozenset(), frozenset(),
            frozenset({"C", "D"}),
        )
        assert keys == ((("C", "E"), Side.OUT),)


class TestDPSPlans:
    def test_every_fetch_has_a_matching_filter(self, db):
        """HPSJ+ invariant: Fetch is always the second half of a Filter."""
        for text in (
            "A -> C, B -> C, C -> D, D -> E",
            "B -> C, C -> D, C -> E",
            "A -> C, A -> D, C -> D",
        ):
            pattern = parse_pattern(text)
            plan = optimize_dps(pattern, model_for(db, pattern)).plan
            pending = set()
            for step in plan.steps:
                if isinstance(step, FilterStep):
                    pending.update(step.keys)
                elif isinstance(step, FetchStep):
                    assert (step.condition, step.side) in pending
                    pending.discard((step.condition, step.side))
            assert not pending

    def test_seed_filter_path_used_when_profitable(self):
        """On the anti-correlated star the optimal opening is Figure 3's
        S_1: SeedScan + one shared multi-condition Filter."""
        graph = anti_correlated_star(
            n_hub=800, fanout=8, overlap=0.02,
            branch_labels=("B", "C"), pool_per_branch=100, seed=2,
        )
        db = GraphDatabase(graph)
        pattern = parse_pattern("a:A -> b:B, a -> c:C")
        plan = optimize_dps(pattern, model_for(db, pattern)).plan
        assert isinstance(plan.steps[0], SeedScan)
        assert isinstance(plan.steps[1], FilterStep)
        assert len(plan.steps[1].keys) == 2

    def test_hpsj_seed_used_when_cheap(self, db):
        """Tiny base joins make the R-join-move opening optimal."""
        pattern = parse_pattern("A -> C")
        plan = optimize_dps(pattern, model_for(db, pattern)).plan
        assert isinstance(plan.steps[0], (SeedJoin, SeedScan))

    def test_selection_handles_closing_edges(self, db):
        pattern = parse_pattern("A -> C, A -> D, C -> D")
        plan = optimize_dps(pattern, model_for(db, pattern)).plan
        kinds = [type(s).__name__ for s in plan.steps]
        # three conditions, at most two fetches: one edge must close as a
        # selection or be a seeded join
        result = execute_plan(db, plan)
        from repro.baselines.naive import NaiveMatcher

        assert result.as_set() == NaiveMatcher(db.graph).match_set(pattern)

    def test_status_space_handles_seven_edges(self, db):
        """A dense 5-variable pattern (7 edges) must optimize quickly."""
        pattern = parse_pattern(
            "A -> B, A -> C, B -> D, C -> D, A -> D, B -> E, D -> E"
        )
        optimized = optimize_dps(pattern, model_for(db, pattern))
        optimized.plan.validate()
        assert optimized.estimated_cost >= 0
