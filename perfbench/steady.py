"""Steadiness check: run workloads repeatedly and compare with the bounds.

    python3 perfbench/steady.py [--workloads adhoc serve explore]
        [--runs 10] [--sets 1] [--seconds 25]

Each run is ``run.py --workload W --seed S`` in a fresh process, with
another seed each time (set *s*, run *i*: seed ``1000 * s + i + 1``).
Per workload and end-to-end metric it prints the median, the quartiles
and the spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  With ``--sets 2`` it runs the whole set twice and
also prints how much worse the second median is than the first, which
must stay within the bound as well.  Exit status 1 when any spread or
any median shift exceeds its bound, or when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

from measure import fmt, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} failed with exit {proc.returncode}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["wall_s"] = time.monotonic() - started
    return values


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads:
        sets: List[Dict[str, List[float]]] = []
        for s in range(args.sets):
            values: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = 1000 * s + i + 1
                got = one_run(workload, seed, args.seconds)
                for name in values:
                    values[name].append(got[name])
                print(f"  {workload} seed {seed}: "
                      + " ".join(f"{n}={fmt(got[n])}" for n in values)
                      + f"  (run took {got['wall_s']:.0f} s)", flush=True)
            sets.append(values)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            for s, values in enumerate(sets):
                q1, median, q3, spread = quartile_spread(values[name])
                flag = ""
                if spread > bound:
                    flag, ok = "  SPREAD OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  (over a third of the bound)"
                print(f"{workload:8s} {name:12s} set {s + 1}: median {fmt(median)} {m['unit']}"
                      f"  q1 {fmt(q1)}  q3 {fmt(q3)}  spread {spread:.3f}"
                      f"  bound {bound}{flag}")
            if len(sets) > 1:
                first = quartile_spread(sets[0][name])[1]
                for s in range(1, len(sets)):
                    shift = worse_by(first, quartile_spread(sets[s][name])[1], m["better"])
                    flag = ""
                    if shift > bound:
                        flag, ok = "  SHIFT OVER BOUND", False
                    print(f"{workload:8s} {name:12s} set {s + 1} worse than set 1 by "
                          f"{shift:+.3f} (bound {bound}){flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
