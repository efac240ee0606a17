"""Figure 5(b) — TSD vs INT-DP vs DP on nine tree patterns (T1-T9).

Same setup as Figure 5(a) but with tree-shaped patterns: three 3-node,
three 4-node and three 5-node twigs over the XMark DAG.  Expected shape
(paper Section 6.1): both R-join approaches beat TSD by orders of
magnitude (on P2 the paper reports 1668x / 9709x), and DP beats INT-DP
because INT-DP pays a sort per join.

Run with: pytest benchmarks/bench_fig5_trees.py --benchmark-only -s
"""

import time

import pytest

from repro.workloads.runner import materialize

TREE_QUERIES = tuple(f"T{i}" for i in range(1, 10))
ENGINES = ("TSD", "INT-DP", "DP")


@pytest.fixture(scope="module")
def tree_patterns(dag_factory):
    return dag_factory.figure4_trees()


@pytest.fixture(scope="module")
def reference_counts(dag_engine, tree_patterns):
    return {
        name: len(materialize(dag_engine, pattern, "dp"))
        for name, pattern in tree_patterns.items()
    }


@pytest.mark.parametrize("query", TREE_QUERIES)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_fig5b_tree_patterns(
    benchmark, engine_name, query,
    dag_engine, dag_tsd, dag_igmj, tree_patterns, reference_counts, bench_record,
):
    pattern = tree_patterns[query]

    if engine_name == "TSD":
        run = lambda: dag_tsd.match(pattern)[0]
    elif engine_name == "INT-DP":
        run = lambda: dag_igmj.match(pattern)[0]
    else:
        run = lambda: materialize(dag_engine, pattern, "dp").rows

    last_ms = {}

    def timed():
        started = time.perf_counter()
        out = run()
        last_ms["ms"] = (time.perf_counter() - started) * 1000.0
        return out

    rows = benchmark(timed)
    assert len(rows) == reference_counts[query], (
        f"{engine_name} disagrees with DP on {query}"
    )
    benchmark.extra_info.update(
        {"figure": "5b", "query": query, "engine": engine_name, "rows": len(rows)}
    )
    bench_record.add(
        query=query, optimizer=engine_name, wall_ms=last_ms["ms"], rows=len(rows)
    )
    print(f"\n[Fig 5b] {query} {engine_name:>7}: rows={len(rows)}")
