"""End-to-end tests of the public GraphEngine API."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import GraphEngine, NaiveMatcher, parse_pattern
from repro.graph import generators, xmark
from repro.query.pattern import GraphPattern


@pytest.fixture(scope="module")
def fig1_engine():
    return GraphEngine(generators.figure1_graph())


class TestMatch:
    def test_paper_pattern_matches_naive(self, fig1_engine):
        pattern = parse_pattern("A -> C, B -> C, C -> D, D -> E")
        naive = NaiveMatcher(fig1_engine.db.graph).match_set(pattern)
        for optimizer in ("dp", "dps", "greedy"):
            result = fig1_engine.match(pattern, optimizer=optimizer)
            assert result.as_set() == naive
            assert result.columns == ("A", "C", "B", "D", "E")

    def test_string_patterns_accepted(self, fig1_engine):
        direct = fig1_engine.match("B -> C")
        parsed = fig1_engine.match(parse_pattern("B -> C"))
        assert direct.as_set() == parsed.as_set()

    def test_unknown_optimizer_rejected(self, fig1_engine):
        with pytest.raises(ValueError):
            fig1_engine.match("B -> C", optimizer="quantum")

    def test_unknown_label_rejected_with_guidance(self, fig1_engine):
        with pytest.raises(KeyError) as err:
            fig1_engine.match("B -> Z")
        assert "known labels" in str(err.value)

    def test_metrics_populated(self, fig1_engine):
        result = fig1_engine.match("A -> C, C -> D")
        metrics = result.metrics
        assert metrics.elapsed_seconds > 0
        assert metrics.result_rows == len(result)
        assert metrics.operators  # at least a seed step
        assert metrics.logical_io > 0
        assert metrics.peak_temporal_rows >= len(result)

    def test_counters_reset_between_queries(self, fig1_engine):
        fig1_engine.match("A -> C, C -> D")
        first = fig1_engine.db.stats.logical_reads
        fig1_engine.match("B -> C")
        assert fig1_engine.db.stats.logical_reads < first + 10_000
        # reset_counters=False accumulates instead
        fig1_engine.match("B -> C", reset_counters=False)

    def test_explain_contains_plan(self, fig1_engine):
        text = fig1_engine.explain("A -> C, B -> C, C -> D, D -> E")
        assert "est_cost" in text
        assert "HPSJ" in text

    def test_stats_summary_shape(self, fig1_engine):
        summary = fig1_engine.stats_summary()
        assert summary["nodes"] == 26
        assert summary["cover_ratio"] > 0
        assert set(summary) == {
            "nodes", "edges", "cover_size", "cover_ratio", "centers"
        }

    def test_same_label_repeated_variables(self):
        """Two pattern variables with the same label (W-table's (B,B) case)."""
        g = generators.random_digraph(15, 0.15, seed=4)
        engine = GraphEngine(g)
        pattern = parse_pattern("x:B -> y:B")
        naive = NaiveMatcher(g).match_set(pattern)
        assert engine.match(pattern).as_set() == naive

    def test_empty_result_pattern(self):
        g = generators.random_digraph(10, 0.0, seed=1)  # no edges at all
        engine = GraphEngine(g)
        labels = g.alphabet()
        assume_ok = len(labels) >= 2
        if assume_ok:
            result = engine.match(f"{labels[0]} -> {labels[1]}")
            # only reflexive pairs impossible across labels: no edges => empty
            assert len(result) == 0


class TestOnXMark:
    def test_xmark_query_all_optimizers_agree(self):
        data = xmark.generate(factor=0.1, entity_budget=800, seed=7)
        engine = GraphEngine(data.graph)
        pattern = parse_pattern("person -> watch, watch -> open_auction")
        results = {
            optimizer: engine.match(pattern, optimizer=optimizer).as_set()
            for optimizer in ("dp", "dps", "greedy")
        }
        assert results["dp"] == results["dps"] == results["greedy"]
        assert results["dp"]  # non-empty by construction (watches exist)

    def test_xmark_matches_naive(self):
        data = xmark.generate(factor=0.05, entity_budget=600, seed=3)
        engine = GraphEngine(data.graph)
        pattern = parse_pattern(
            "open_auction -> itemref, itemref -> item, item -> incategory"
        )
        naive = NaiveMatcher(data.graph).match_set(pattern)
        assert engine.match(pattern).as_set() == naive


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=25),
    density=st.floats(min_value=0.03, max_value=0.25),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_engine_equals_naive_on_random_graphs(n, density, seed):
    g = generators.random_digraph(n, density, seed=seed)
    assume(all(g.extent(label) for label in "ABC"))
    engine = GraphEngine(g)
    pattern = GraphPattern.build(
        {"A": "A", "B": "B", "C": "C"}, [("A", "B"), ("B", "C"), ("A", "C")]
    )
    naive = NaiveMatcher(g).match_set(pattern)
    for optimizer in ("dp", "dps"):
        assert engine.match(pattern, optimizer=optimizer).as_set() == naive


class TestPlanCache:
    def test_repeat_plans_are_cached(self, fig1_engine):
        fig1_engine._plan_cache = {}
        first = fig1_engine.plan("A -> C, C -> D")
        second = fig1_engine.plan("A -> C, C -> D")
        assert first is second  # same object: served from the cache

    def test_different_optimizers_cached_separately(self, fig1_engine):
        dp = fig1_engine.plan("A -> C, C -> D", optimizer="dp")
        dps = fig1_engine.plan("A -> C, C -> D", optimizer="dps")
        assert dp is not dps

    def test_cache_reset_at_capacity(self, fig1_engine):
        fig1_engine._plan_cache = {}
        original = fig1_engine.PLAN_CACHE_SIZE
        try:
            fig1_engine.PLAN_CACHE_SIZE = 2
            fig1_engine.plan("A -> C")
            fig1_engine.plan("B -> C")
            fig1_engine.plan("C -> D")  # triggers one LRU eviction
            assert len(fig1_engine._plan_cache) <= 2
        finally:
            fig1_engine.PLAN_CACHE_SIZE = original

    def test_lru_eviction_keeps_hottest_plan(self, fig1_engine):
        """Eviction is LRU, not wholesale: the hottest plan survives."""
        fig1_engine._plan_cache = {}
        original = fig1_engine.PLAN_CACHE_SIZE
        try:
            fig1_engine.PLAN_CACHE_SIZE = 2
            hot = fig1_engine.plan("A -> C")
            fig1_engine.plan("B -> C")
            assert fig1_engine.plan("A -> C") is hot  # touch: A is now youngest
            fig1_engine.plan("C -> D")  # at capacity: evicts B, the LRU entry
            cached_patterns = {key[0] for key in fig1_engine._plan_cache}
            assert "A -> C" in cached_patterns
            assert "B -> C" not in cached_patterns
            # and the survivor is still served from cache, same object
            assert fig1_engine.plan("A -> C") is hot
        finally:
            fig1_engine.PLAN_CACHE_SIZE = original

    def test_lru_eviction_drops_oldest_without_touch(self, fig1_engine):
        fig1_engine._plan_cache = {}
        original = fig1_engine.PLAN_CACHE_SIZE
        try:
            fig1_engine.PLAN_CACHE_SIZE = 2
            fig1_engine.plan("A -> C")
            second = fig1_engine.plan("B -> C")
            fig1_engine.plan("C -> D")  # A is oldest: evicted
            assert "A -> C" not in {key[0] for key in fig1_engine._plan_cache}
            assert fig1_engine.plan("B -> C") is second
        finally:
            fig1_engine.PLAN_CACHE_SIZE = original

    def test_cache_key_includes_execution_settings(self, fig1_engine):
        """Mixed-mode traffic must never share one memoized plan slot.

        The service interleaves scalar and batched queries on one
        engine; the cache key carries the execution fingerprint so a
        plan memoized under one mode can never be served (or evict)
        another mode's entry.
        """
        fig1_engine._plan_cache = {}
        scalar = fig1_engine.plan("A -> C, C -> D")
        batched = fig1_engine.plan("A -> C, C -> D", batch_size=512)
        assert len(fig1_engine._plan_cache) == 2
        # identical settings still hit their own entry, same object
        assert fig1_engine.plan("A -> C, C -> D") is scalar
        assert fig1_engine.plan("A -> C, C -> D", batch_size=512) is batched
        # batch_size=0 forces the scalar path: same fingerprint as default
        assert fig1_engine.plan("A -> C, C -> D", batch_size=0) is scalar

    def test_cache_key_tracks_engine_default_settings(self):
        """Engine-level defaults feed the fingerprint like overrides do."""
        from repro.graph import generators

        g = generators.figure1_graph()
        plain = GraphEngine(g)
        plain._plan_cache = {}
        first = plain.plan("A -> C")
        plain.batch_size = 512  # engine reconfigured between queries
        second = plain.plan("A -> C")
        assert first is not second
        assert len(plain._plan_cache) == 2

    def test_cache_key_includes_index_generation(self, fig1_engine):
        """An index rebuild re-plans: the old catalog priced the old plan."""
        fig1_engine._plan_cache = {}
        before = fig1_engine.plan("A -> C, C -> D")
        generation = fig1_engine.db.index_generation
        try:
            fig1_engine.db.index_generation = generation + 1
            after = fig1_engine.plan("A -> C, C -> D")
            assert before is not after
            assert len(fig1_engine._plan_cache) == 2
        finally:
            fig1_engine.db.index_generation = generation

    def test_cached_plan_still_correct(self, fig1_engine):
        from repro import NaiveMatcher

        pattern = "A -> C, B -> C"
        naive = NaiveMatcher(fig1_engine.db.graph).match_set(
            __import__("repro").parse_pattern(pattern)
        )
        fig1_engine.match(pattern)
        assert fig1_engine.match(pattern).as_set() == naive
