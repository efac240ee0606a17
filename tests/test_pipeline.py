"""Tests for the pipelined (streaming) executor."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import GraphEngine
from repro.graph.generators import anti_correlated_star, figure1_graph, random_digraph
from repro.query import execute_plan, execute_plan_streaming
from repro.query.parser import parse_pattern


@pytest.fixture(scope="module")
def engine():
    return GraphEngine(figure1_graph())


PATTERNS = [
    "B -> C",
    "A -> C, C -> D",
    "A -> C, B -> C, C -> D, D -> E",
    "B -> C, C -> D, C -> E",
    "A -> C, A -> D, C -> D",   # includes a selection
]


class TestStreamingEqualsMaterialized:
    @pytest.mark.parametrize("text", PATTERNS)
    @pytest.mark.parametrize("optimizer", ["dp", "dps"])
    def test_same_result_set(self, engine, text, optimizer):
        optimized = engine.plan(text, optimizer=optimizer)
        materialized = execute_plan(engine.db, optimized.plan)
        streamed = set(execute_plan_streaming(engine.db, optimized.plan))
        assert streamed == materialized.as_set()

    def test_no_duplicates_in_stream(self, engine):
        optimized = engine.plan("B -> C, C -> E", optimizer="dps")
        rows = list(execute_plan_streaming(engine.db, optimized.plan))
        assert len(rows) == len(set(rows))

    def test_single_variable_pattern(self, engine):
        optimized = engine.plan("x:B")
        rows = set(execute_plan_streaming(engine.db, optimized.plan))
        assert rows == {(v,) for v in engine.db.graph.extent("B")}


class TestLimit:
    def test_limit_truncates(self, engine):
        full = engine.match("B -> C")
        limited = list(engine.match_iter("B -> C", limit=3))
        assert len(limited) == min(3, len(full))
        assert set(limited) <= full.as_set()

    def test_limit_zero(self, engine):
        assert list(engine.match_iter("B -> C", limit=0)) == []

    def test_limit_larger_than_result(self, engine):
        full = engine.match("A -> C, C -> D")
        rows = list(engine.match_iter("A -> C, C -> D", limit=10**9))
        assert set(rows) == full.as_set()

    def test_limit_stops_upstream_work(self):
        """A limit-1 probe over a huge-result pattern must be far cheaper
        than full evaluation — measured in logical page reads."""
        graph = anti_correlated_star(
            n_hub=3000, fanout=15, overlap=0.05,
            branch_labels=("B", "C"), pool_per_branch=300, seed=3,
        )
        engine = GraphEngine(graph)
        engine.db.reset_counters()
        first = next(iter(engine.match_iter("a:A -> b:B, a -> c:C", limit=1)))
        probe_io = engine.db.stats.logical_reads
        assert len(first) == 3
        engine.db.reset_counters()
        full = engine.match("a:A -> b:B, a -> c:C", reset_counters=False)
        full_io = engine.db.stats.logical_reads
        assert len(full) > 1000
        assert probe_io * 10 < full_io

    def test_stream_is_lazy_before_iteration(self, engine):
        engine.db.reset_counters()
        iterator = engine.match_iter("A -> C, C -> D")
        # building the generator does not execute the query
        assert engine.db.stats.logical_reads < 50
        list(iterator)
        assert engine.db.stats.logical_reads > 0


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=16),
    density=st.floats(min_value=0.05, max_value=0.25),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_streaming_equals_materialized(n, density, seed):
    g = random_digraph(n, density, seed=seed, alphabet="ABC")
    assume(all(g.extent(label) for label in "ABC"))
    engine = GraphEngine(g)
    for optimizer in ("dp", "dps"):
        optimized = engine.plan("A -> B, B -> C, A -> C", optimizer=optimizer)
        materialized = execute_plan(engine.db, optimized.plan).as_set()
        streamed = set(execute_plan_streaming(engine.db, optimized.plan))
        assert streamed == materialized
