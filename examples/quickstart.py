"""Quickstart: build a graph database and match patterns over it.

Builds an XMark-like auction data graph, constructs the 2-hop graph
codes, base tables, cluster-based R-join index and W-table (all inside
``GraphEngine``), and answers a few reachability patterns — showing the
optimized plan, the matches, and the I/O metrics.

Run:  python examples/quickstart.py
"""

from repro import GraphEngine, xmark
from repro.workloads.runner import materialize


def main() -> None:
    # 1. a data graph: an auction site with items, people, categories and
    #    auctions; ID/IDREF links are edges just like parent-child links
    data = xmark.generate(factor=0.2, entity_budget=1200, seed=7)
    graph = data.graph
    print(f"data graph: {graph.node_count} nodes, {graph.edge_count} edges, "
          f"{len(graph.alphabet())} labels")

    # 2. the engine: computes the 2-hop cover and loads the graph database
    engine = GraphEngine(graph)
    summary = engine.stats_summary()
    print(f"2-hop cover: |H|={summary['cover_size']} "
          f"(|H|/|V|={summary['cover_ratio']:.2f})\n")

    # 3. a pattern in the paper's style: each edge is a reachability
    #    condition "some X-labeled node reaches some Y-labeled node"
    pattern = "person -> watch, watch -> open_auction, open_auction -> itemref"
    print(f"pattern: {pattern}")
    print(engine.explain(pattern, optimizer="dps"))
    result = engine.match(pattern, optimizer="dps")
    print(f"\n{len(result)} matches; first three:")
    for row in result.rows[:3]:
        print("  " + ", ".join(f"{c}={v}" for c, v in zip(result.columns, row)))
    print(f"\nmetrics: {result.metrics.elapsed_seconds * 1000:.1f} ms, "
          f"{result.metrics.physical_io} physical / "
          f"{result.metrics.logical_io} logical base-table/index page I/Os")

    # 4. the same query under the R-join-only DP optimizer, for contrast,
    #    through the paper's HPSJ+ driver: it stores every intermediate
    #    in a temporal table and charges that page I/O
    dps = materialize(engine, pattern, "dps")
    dp = materialize(engine, pattern, "dp")
    assert dp.as_set() == dps.as_set() == result.as_set()
    print(f"paper I/O model: DP {dp.metrics.physical_io} vs "
          f"DPS {dps.metrics.physical_io} physical I/Os "
          f"(same {len(dp)} matches)")

    # 5. named variables allow repeated labels: two different persons
    #    connected through one auction
    pattern2 = (
        "seller:seller -> p1:person, auction:open_auction -> seller, "
        "auction -> bidder:bidder, bidder -> p2:person"
    )
    result2 = engine.match(pattern2)
    print(f"\nseller/bidder pattern: {len(result2)} matches")


if __name__ == "__main__":
    main()
