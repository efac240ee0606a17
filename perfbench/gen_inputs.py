"""Generate the benchmark's frozen inputs.

    python3 perfbench/gen_inputs.py [--seed 7]

Writes ``perfbench/data``: two XMark "L" graphs (entity budgets 1500 and
6000) and one workload file per workload.  Patterns come from one
``PatternFactory`` pass per graph; each pattern is stored with its
output columns, expected row count and the digest of its sorted rows.
Expected rows come from ``NaiveMatcher`` when it finishes within
:data:`NAIVE_BUDGET_S` seconds, otherwise from the scalar streaming driver
cross-checked against the materializing one.  The benchmark reads these
files and never regenerates them, so a later change to the program's
generators or catalog cannot silently change what is measured.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
import time
from typing import Any, Dict, List

import frozen
from measure import rows_digest

#: XMark "L" (factor 0.8) at two entity budgets: ~5.2k and ~21k nodes
GRAPHS = {"L1500": 1500, "L6000": 6000}
#: PatternFactory validator: every intermediate of the DPS plan stays
#: below this many rows
ROW_CAP = 200_000
#: seconds ``NaiveMatcher`` may take per pattern before the engine's
#: cross-checked drivers are the oracle instead
NAIVE_BUDGET_S = 10.0
#: ``serve`` hot-set size
HOT_SET = 24
#: ``explore`` takes the patterns whose full result has at least this
#: many rows (first-10 answers are then always truncated at the limit)
BROAD_MIN_ROWS = 1000


class _Budget(Exception):
    pass


def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
    raise _Budget()


def pattern_pool(engine, seed: int) -> List[Any]:
    """Distinct Figure 4 P/T/Q and cyclic patterns, in factory order."""
    from repro import PatternFactory, parse_pattern
    from repro.workloads.runner import row_limit_validator

    factory = PatternFactory(
        engine.db.catalog, seed=seed, validator=row_limit_validator(engine, ROW_CAP)
    )
    families: Dict[str, Any] = {}
    families.update(factory.figure4_paths())
    families.update(factory.figure4_trees())
    families.update({f"{k}x4": v for k, v in factory.figure4_queries(4).items()})
    families.update({f"{k}x5": v for k, v in factory.figure4_queries(5).items()})
    families.update(factory.cyclic_patterns())
    seen = set()
    pool = []
    for name, pattern in families.items():
        text = str(parse_pattern(str(pattern)))
        if text not in seen:
            seen.add(text)
            pool.append((name, text))
    return pool


def expected(engine, graph, text: str) -> Dict[str, Any]:
    from repro import NaiveMatcher, parse_pattern
    from repro.query.physical.drivers import execute_plan, execute_plan_streaming

    pattern = parse_pattern(text)
    plan = engine.plan(pattern, optimizer="auto").plan
    streamed = list(execute_plan_streaming(engine.db, plan))
    materialized = execute_plan(engine.db, plan).rows
    if rows_digest(streamed) != rows_digest(materialized):
        raise SystemExit(f"drivers disagree on {text!r}")
    oracle = "stream+materialize"
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, NAIVE_BUDGET_S)
    try:
        naive = NaiveMatcher(graph).match(pattern)
        oracle = "naive"
    except _Budget:
        naive = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if naive is not None and rows_digest(naive) != rows_digest(streamed):
        raise SystemExit(f"engine disagrees with NaiveMatcher on {text!r}")
    return {
        "text": text,
        "columns": list(pattern.variables),
        "rows": len(streamed),
        "digest": rows_digest(streamed),
        "oracle": oracle,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    frozen.use_program_source()
    from repro import GraphEngine, xmark

    pools = {}
    for gname, budget in GRAPHS.items():
        source = xmark.dataset("L", entity_budget=budget, seed=args.seed).graph
        labels = list(source.labels())
        edges = list(source.edges())
        payload = frozen.graph_payload(labels, edges)
        frozen.write_json(f"{gname}.json.gz", payload, gz=True)
        meta = {
            "graph": f"{gname}.json.gz",
            "graph_digest": frozen.graph_digest(*frozen.decode_graph(payload)),
        }
        graph = frozen.load_graph(meta)
        engine = GraphEngine(graph)
        started = time.perf_counter()
        patterns = []
        for name, text in pattern_pool(engine, args.seed):
            entry = {"name": name, **expected(engine, graph, text)}
            print(f"{gname} {name:15s} rows={entry['rows']:7d} {entry['oracle']}",
                  flush=True)
            patterns.append(entry)
        print(f"{gname}: {len(patterns)} patterns in "
              f"{time.perf_counter() - started:.1f}s", flush=True)
        pools[gname] = (meta, patterns)

    generator = {"seed": args.seed, "row_cap": ROW_CAP, "dataset": "xmark L"}
    meta, patterns = pools["L6000"]
    frozen.write_json("adhoc.json", {
        **meta, "generator": generator, "patterns": patterns,
    })
    frozen.write_json("explore.json", {
        **meta, "generator": {**generator, "min_rows": BROAD_MIN_ROWS},
        "patterns": [p for p in patterns if p["rows"] >= BROAD_MIN_ROWS],
    })
    meta, patterns = pools["L1500"]
    hot = [p for p in patterns if p["rows"] > 0][:HOT_SET]
    random.Random(args.seed).shuffle(hot)  # list order is the Zipf rank
    frozen.write_json("serve.json", {
        **meta, "generator": {**generator, "hot_set": HOT_SET}, "patterns": hot,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
