"""The paper's motivating example: business-relationship patterns.

Section 1: "based on business relationships, a graph pattern can be
specified as to find Supplier, Retailer, Whole-seller, and Bank such that
Supplier directly or indirectly supplies products to Retailer and
Whole-seller, and all of them receive services from the same Bank,
directly or indirectly."

This example synthesizes a multi-tier trade network (suppliers ->
distributors -> wholesellers/retailers, banks servicing firms through
correspondent-bank chains) and runs exactly that pattern.  Note the
pattern is a *graph* (not a tree): Bank must reach three other pattern
nodes, which is where R-semijoin interleaving (DPS) shines.

Run:  python examples/supply_chain.py
"""

import random

from repro import DiGraph, GraphEngine
from repro.workloads.runner import materialize


def build_trade_network(
    suppliers: int = 40,
    distributors: int 	= 60,
    wholesellers: int = 50,
    retailers: int = 120,
    banks: int = 12,
    seed: int = 42,
) -> DiGraph:
    """A four-tier trade network with a correspondent-banking overlay.

    Edges mean "supplies / services, directly": supplier -> distributor,
    distributor -> distributor | wholeseller | retailer, and
    bank -> bank | firm.  Reachability = "directly or indirectly".
    """
    rng = random.Random(seed)
    g = DiGraph()
    tier = {
        "supplier": [g.add_node("supplier") for _ in range(suppliers)],
        "distributor": [g.add_node("distributor") for _ in range(distributors)],
        "wholeseller": [g.add_node("wholeseller") for _ in range(wholesellers)],
        "retailer": [g.add_node("retailer") for _ in range(retailers)],
        "bank": [g.add_node("bank") for _ in range(banks)],
    }
    for s in tier["supplier"]:
        for d in rng.sample(tier["distributor"], rng.randint(1, 3)):
            g.add_edge(s, d)
    for d in tier["distributor"]:
        if rng.random() < 0.3:  # sub-distribution chains
            g.add_edge(d, rng.choice(tier["distributor"]))
        for w in rng.sample(tier["wholeseller"], rng.randint(0, 2)):
            g.add_edge(d, w)
        for r in rng.sample(tier["retailer"], rng.randint(1, 4)):
            g.add_edge(d, r)
    for w in tier["wholeseller"]:
        for r in rng.sample(tier["retailer"], rng.randint(0, 3)):
            g.add_edge(w, r)
    # correspondent banking: a few hub banks service smaller banks which
    # service firms; "receive services from" points bank -> firm
    hubs = tier["bank"][: max(1, banks // 4)]
    for hub in hubs:
        for b in tier["bank"]:
            if b not in hubs and rng.random() < 0.6:
                g.add_edge(hub, b)
    firms = (
        tier["supplier"] + tier["distributor"]
        + tier["wholeseller"] + tier["retailer"]
    )
    for b in tier["bank"]:
        for f in rng.sample(firms, rng.randint(3, 10)):
            g.add_edge(b, f)
    return g


def main() -> None:
    g = build_trade_network()
    print(f"trade network: {g.node_count} firms+banks, {g.edge_count} edges")
    engine = GraphEngine(g)

    # the paper's Section 1 pattern, verbatim in our pattern language:
    pattern = (
        "s:supplier -> r:retailer, s -> w:wholeseller, "
        "b:bank -> s, b -> r, b -> w"
    )
    print(f"\npattern: {pattern}")
    print(engine.explain(pattern, optimizer="dps"))

    result = engine.match(pattern, optimizer="dps")
    print(f"\n{len(result)} (supplier, retailer, wholeseller, bank) matches")
    for row in result.rows[:5]:
        binding = dict(zip(result.columns, row))
        print(f"  bank {binding['b']} services supplier {binding['s']} "
              f"-> retailer {binding['r']} & wholeseller {binding['w']}")

    # DP vs DPS under the paper's HPSJ+ driver, which charges the page
    # I/O of every intermediate stored into a temporal table
    dps = materialize(engine, pattern, "dps")
    dp = materialize(engine, pattern, "dp")
    assert dp.as_set() == dps.as_set() == result.as_set()
    print(
        f"\nDPS: {dps.metrics.elapsed_seconds*1e3:.1f} ms "
        f"({dps.metrics.physical_io} phys I/O, "
        f"peak intermediate {dps.metrics.peak_temporal_rows} rows)\n"
        f"DP : {dp.metrics.elapsed_seconds*1e3:.1f} ms "
        f"({dp.metrics.physical_io} phys I/O, "
        f"peak intermediate {dp.metrics.peak_temporal_rows} rows)"
    )


if __name__ == "__main__":
    main()
