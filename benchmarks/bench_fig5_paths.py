"""Figure 5(a) — TSD vs INT-DP vs DP on nine path patterns (P1-P9).

The paper compares the holistic TwigStackD (TSD), the sort-merge
interval-join approach with DP ordering (INT-DP), and the cluster-index
R-join approach with DP ordering (DP) over a small XMark *DAG* (TSD only
supports DAGs), on nine path patterns — three each with 3, 4 and 5 nodes.
Expected shape: TSD slowest by orders of magnitude (buffering + edge
transitive closure), INT-DP in the middle (per-join re-sorting), DP
fastest.

Every measurement first cross-checks that the engine returns the same
match count as DP — a perf number is never reported off a wrong answer.

Run with: pytest benchmarks/bench_fig5_paths.py --benchmark-only -s
"""

import time

import pytest

from repro.workloads.runner import materialize

PATH_QUERIES = tuple(f"P{i}" for i in range(1, 10))
ENGINES = ("TSD", "INT-DP", "DP")


@pytest.fixture(scope="module")
def path_patterns(dag_factory):
    return dag_factory.figure4_paths()


@pytest.fixture(scope="module")
def reference_counts(dag_engine, path_patterns):
    return {
        name: len(materialize(dag_engine, pattern, "dp"))
        for name, pattern in path_patterns.items()
    }


@pytest.mark.parametrize("query", PATH_QUERIES)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_fig5a_path_patterns(
    benchmark, engine_name, query,
    dag_engine, dag_tsd, dag_igmj, path_patterns, reference_counts, bench_record,
):
    pattern = path_patterns[query]

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
        {"figure": "5a", "query": query, "engine": engine_name, "rows": len(rows)}
    )
    bench_record.add(
        query=query, optimizer=engine_name, wall_ms=last_ms["ms"], rows=len(rows)
    )
    print(f"\n[Fig 5a] {query} {engine_name:>7}: rows={len(rows)}")
