"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adhoc|serve|explore \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src``
as shipped, with default settings.  Every metric is printed as
``name value unit``, then the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status: 0 when every answer matched its frozen digest and every
mechanism guard held, 1 otherwise, 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import frozen  # noqa: E402
from measure import fmt  # noqa: E402


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    On a small virtual machine, wake-ups that cross CPUs (load generator
    to server, event-loop thread to slot thread) cost a varying amount:
    unpinned, ``explore`` swung between ~800 and ~1150 requests/s from
    one run to the next, and pinned it stayed within ~5%.  Pinning the
    server and the generator to two different CPUs was worse still
    (``explore``'s tail spread 0.6 between seeds, ``serve``'s 0.27), so
    both share one, and the server's figures include the generator's
    CPU time, which the traced run reports as
    ``loadgen.cpu_ms_per_request``.  The program runs at its defaults,
    which use one core for Python work anyway.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


#: string hashing seed for this process and the server.  The optimizer
#: breaks cost ties in set-iteration order, so the seed program chooses
#: different plans under different hash seeds (three plan sets for the
#: ``adhoc`` patterns across hash seeds 0-3), which made ``qps`` bimodal
#: from run to run.  Every run uses the same one.
HASH_SEED = "0"


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + (sys.argv[1:] if argv is None else list(argv)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("adhoc", "serve", "explore"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=frozen.run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its server and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    try:
        frozen.use_program_source()
    except frozen.ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import workloads

    work_root = os.path.join(frozen.BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        run = workloads.Run(args.seed, args.seconds, bool(args.trace), workdir)
        out = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = sorted(set(wanted) - set(out.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")
    for name in sorted(out.metrics):
        value, unit = out.metrics[name]
        note = out.notes.get(name)
        print(f"{args.workload} {name} {fmt(value)} {unit}" + (f"  ({note})" if note else ""))
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"{args.workload} failed_frac {fmt(failed_frac)} fraction  "
          f"({out.failed} of {out.attempted} requests failed)")
    for problem in out.problems:
        print(f"{args.workload} PROBLEM {problem}")
    correct = out.failed == 0 and not out.problems and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name][0], "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
