"""Tests for plan execution mechanics: metrics, projection, row limits."""

import pytest

from repro import GraphEngine
from repro.graph.generators import figure1_graph, random_digraph
from repro.query.algebra import (
    FetchStep,
    FilterStep,
    Plan,
    RowLimitExceeded,
    SeedJoin,
    Side,
    TemporalTable,
)
from repro.query import execute_plan
from repro.query.parser import parse_pattern


@pytest.fixture(scope="module")
def engine():
    return GraphEngine(figure1_graph())


class TestExecution:
    def test_projection_order_follows_pattern_variables(self, engine):
        pattern = parse_pattern("C -> D, B -> C")
        result = engine.match(pattern)
        assert result.columns == ("C", "D", "B")
        g = engine.db.graph
        for c, d, b in result.rows:
            assert g.label(c) == "C"
            assert g.label(d) == "D"
            assert g.label(b) == "B"

    def test_operator_metrics_sequence_matches_plan(self, engine):
        optimized = engine.plan("A -> C, C -> D", optimizer="dp")
        result = execute_plan(engine.db, optimized.plan)
        assert len(result.metrics.operators) == len(optimized.plan.steps)

    def test_io_delta_only_covers_this_query(self, engine):
        engine.match("B -> C")  # warm up
        result = engine.match("B -> C")
        assert result.metrics.io.logical_reads == result.metrics.logical_io
        assert result.metrics.logical_io > 0

    def test_manual_plan_execution(self, engine):
        pattern = parse_pattern("B -> C, C -> D")
        plan = Plan(
            pattern,
            [
                SeedJoin(("B", "C")),
                FilterStep(((("C", "D"), Side.OUT),)),
                FetchStep(("C", "D"), Side.OUT),
            ],
        )
        manual = execute_plan(engine.db, plan)
        optimized = engine.match(pattern)
        assert manual.as_set() == optimized.as_set()


class TestTemporalTablesDropped:
    PATTERNS = ("A -> B, B -> C", "A -> B, B -> C, A -> C", "A -> B")

    def _runs(self, engine, passes):
        """Run the patterns *passes* times; each run's I/O and the disk
        size after each pass."""
        plans = [engine.plan(p, optimizer="dp").plan for p in self.PATTERNS]
        ios, pages = [], []
        for _ in range(passes):
            for plan in plans:
                ios.append(execute_plan(engine.db, plan).metrics.io)
            pages.append(engine.db.pool.disk.page_count)
        return ios, pages

    def test_disk_stops_growing_and_io_is_unchanged(self, monkeypatch):
        graph = random_digraph(40, 0.25, seed=9)
        # a 4-frame pool: dirty temporal pages are evicted mid-run, and
        # some still sit in frames when their table is dropped
        dropping = GraphEngine(graph, buffer_bytes=4 * 4096)
        ios, pages = self._runs(dropping, 10)
        assert max(pages) == pages[0]
        assert sum(io.physical_writes for io in ios) > 0

        # the same runs with the pages kept: identical I/O, growing disk
        monkeypatch.setattr(TemporalTable, "drop", lambda self: None)
        keeping = GraphEngine(graph, buffer_bytes=4 * 4096)
        kept_ios, kept_pages = self._runs(keeping, 10)
        assert kept_ios == ios
        assert kept_pages[-1] > kept_pages[0] > pages[0]


class TestRowLimit:
    def test_row_limit_raises_on_blowup(self):
        g = random_digraph(30, 0.3, seed=3)
        engine = GraphEngine(g)
        pattern = parse_pattern("A -> B, B -> C")
        full = engine.match(pattern)
        assert len(full) > 10
        with pytest.raises(RowLimitExceeded):
            engine.match(pattern, row_limit=5)

    def test_row_limit_allows_small_queries(self, engine):
        result = engine.match("A -> C, C -> D", row_limit=10_000)
        unlimited = engine.match("A -> C, C -> D")
        assert result.as_set() == unlimited.as_set()

    def test_row_limit_caps_intermediates_not_only_result(self):
        """A query whose final result is small but whose intermediate is
        large must still trip the guard."""
        g = random_digraph(40, 0.25, seed=9)
        engine = GraphEngine(g)
        # A->B joins are big; the closing A->C selection shrinks them
        pattern = parse_pattern("A -> B, B -> C, A -> C")
        full = engine.match(pattern)
        limit = max(1, full.metrics.peak_temporal_rows - 1)
        if full.metrics.peak_temporal_rows > len(full):
            with pytest.raises(RowLimitExceeded):
                engine.match(pattern, row_limit=min(limit, len(full)))


class TestValidatorHelper:
    def test_row_limit_validator(self):
        from repro.workloads.runner import row_limit_validator

        g = random_digraph(30, 0.3, seed=3)
        engine = GraphEngine(g)
        tight = row_limit_validator(engine, row_limit=5)
        loose = row_limit_validator(engine, row_limit=10_000_000)
        pattern = parse_pattern("A -> B, B -> C")
        assert not tight(pattern)
        assert loose(pattern)
