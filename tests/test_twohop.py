"""Correctness of the 2-hop reachability labeling (the core substrate).

The single most important invariant in the library: for any digraph,
``out(u) ∩ in(v) ≠ ∅  ⟺  u ~> v`` — the paper's Example 3.1 semantics.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag, random_digraph, random_tree
from repro.graph.traversal import TransitiveClosure
from repro.labeling.twohop import TwoHopLabeling, build_two_hop, greedy_two_hop


def assert_labeling_correct(graph: DiGraph, labeling: TwoHopLabeling) -> None:
    closure = TransitiveClosure(graph)
    for u in graph.nodes():
        for v in graph.nodes():
            expected = closure.reaches(u, v)
            got = labeling.reaches(u, v)
            assert got == expected, f"{u}~>{v}: labeling={got} truth={expected}"


class TestBuildTwoHop:
    def test_self_reachability_always_true(self):
        g = random_digraph(20, 0.1, seed=1)
        labeling = build_two_hop(g)
        assert all(labeling.reaches(v, v) for v in g.nodes())

    def test_codes_include_self(self):
        g = random_dag(15, 0.2, seed=2)
        labeling = build_two_hop(g)
        for v in g.nodes():
            assert v in labeling.in_codes[v]
            assert v in labeling.out_codes[v]

    def test_chain_graph(self):
        g = DiGraph()
        g.add_nodes(["A"] * 6)
        g.add_edges([(i, i + 1) for i in range(5)])
        assert_labeling_correct(g, build_two_hop(g))

    def test_cycle_members_share_reachability(self, cyclic_graph):
        labeling = build_two_hop(cyclic_graph)
        assert labeling.reaches(0, 2)
        assert labeling.reaches(2, 1)
        assert labeling.reaches(1, 3)
        assert not labeling.reaches(3, 0)

    def test_disconnected_components_unreachable(self):
        g = DiGraph()
        g.add_nodes(["A"] * 4)
        g.add_edges([(0, 1), (2, 3)])
        labeling = build_two_hop(g)
        assert not labeling.reaches(0, 2)
        assert not labeling.reaches(3, 1)
        assert labeling.reaches(0, 1)

    def test_empty_graph(self):
        labeling = build_two_hop(DiGraph())
        assert labeling.node_count == 0
        assert labeling.cover_size() == 0


class TestCoverMetrics:
    def test_cover_size_counts_non_self_entries(self):
        g = DiGraph()
        g.add_nodes(["A", "B"])
        g.add_edge(0, 1)
        labeling = build_two_hop(g)
        # one reachable pair (0,1): it needs at least one cover entry
        assert labeling.cover_size() >= 1
        assert labeling.average_code_size() == labeling.cover_size() / 2

    def test_cover_is_linearish_on_trees(self):
        g = random_tree(300, seed=4)
        labeling = build_two_hop(g)
        # Table 2 reports |H|/|V| ~ 3.5 on XMark; trees should be modest too
        assert labeling.average_code_size() < 12

    def test_clusters_are_consistent_with_codes(self):
        g = random_dag(25, 0.15, seed=6)
        labeling = build_two_hop(g)
        for center, (f_cluster, t_cluster) in labeling.clusters().items():
            for u in f_cluster:
                assert center in labeling.out_codes[u]
            for v in t_cluster:
                assert center in labeling.in_codes[v]

    def test_cluster_pairs_are_sound(self):
        """Every F x T pair through one center must truly be reachable."""
        g = random_digraph(25, 0.1, seed=8)
        labeling = build_two_hop(g)
        closure = TransitiveClosure(g)
        for _, (f_cluster, t_cluster) in labeling.clusters().items():
            for u in f_cluster:
                for v in t_cluster:
                    assert closure.reaches(u, v)


class TestGreedyTwoHop:
    def test_matches_truth_on_small_graphs(self):
        for seed in range(4):
            g = random_digraph(12, 0.15, seed=seed)
            assert_labeling_correct(g, greedy_two_hop(g))

    def test_two_constructions_agree_on_queries(self):
        g = random_dag(15, 0.2, seed=9)
        pruned = build_two_hop(g)
        greedy = greedy_two_hop(g)
        for u in g.nodes():
            for v in g.nodes():
                assert pruned.reaches(u, v) == greedy.reaches(u, v)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    density=st.floats(min_value=0.0, max_value=0.35),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_property_pruned_labeling_equals_bfs(n, density, seed):
    g = random_digraph(n, density, seed=seed)
    assert_labeling_correct(g, build_two_hop(g))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=22),
    density=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_property_dag_labeling_equals_bfs(n, density, seed):
    g = random_dag(n, density, seed=seed)
    assert_labeling_correct(g, build_two_hop(g))


class TestCenterOrdering:
    def test_all_orders_are_correct(self):
        g = random_digraph(25, 0.12, seed=14)
        for order in ("degree", "reach", "random"):
            assert_labeling_correct(g, build_two_hop(g, center_order=order))

    def test_unknown_order_rejected(self):
        import pytest

        g = random_digraph(5, 0.2, seed=1)
        with pytest.raises(ValueError):
            build_two_hop(g, center_order="alphabetical")

    def test_heuristics_beat_random_on_hub_graphs(self):
        """On a hub-and-spoke graph the degree heuristic must produce a
        cover no larger than the random control's."""
        from repro.graph.digraph import DiGraph

        g = DiGraph()
        hub = g.add_node("H")
        for i in range(40):
            src = g.add_node("A")
            dst = g.add_node("B")
            g.add_edge(src, hub)
            g.add_edge(hub, dst)
        degree = build_two_hop(g, center_order="degree").cover_size()
        random_ = build_two_hop(g, center_order="random").cover_size()
        assert degree <= random_
        # the hub cover is linear: one center serves all 40x40 pairs
        assert degree <= 4 * g.node_count

