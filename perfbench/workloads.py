"""The three workloads: ``adhoc``, ``serve`` and ``explore``.

Each takes a :class:`Run` and returns an :class:`Outcome`.  With
``trace`` off it measures the end-to-end metrics; with ``trace`` on it
measures the per-layer metrics of :data:`PER_LAYER`, by timing calls
into the program's public functions from here.  README.md says why each
workload exists and what each metric should move.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import frozen
import loadgen
from measure import Tracer, check_prefix, check_rows, fmt, q_error, tail, wire_ms
from speed import Speed

#: an untraced ``adhoc`` run builds the database this many times, each
#: build followed by its share of the passes on it; set-up time is the
#: median of the builds.  The machine's speed drifts in phases of tens
#: of seconds, and builds spread over the run sample the same phases as
#: the passes do.  The previous database is freed first: a build next to
#: a live one runs ~20% slower.
ADHOC_ROUNDS = 8
#: an untraced ``serve`` or ``explore`` run alternates a timed server
#: spawn (a fraction of a second) with a share of the load this many
#: times, for the same reason; set-up time is the median of the spawns
SERVER_ROUNDS = 8
#: traced runs: ``storage.snapshot_open_s`` is the median of this many opens
SNAPSHOT_OPENS = 5
#: ``serve``: the fixed open-loop arrival rate (requests/s), about a tenth
#: of the 40-50/s the seed program reaches in the saturation phase.  At a
#: fixed rate, queueing amplifies any slowdown of the machine: at 16/s
#: the median rose 60% when the machine ran 15% slower, at half the
#: capacity (24/s) it moved by 40% from seed to seed, and at 10/s it
#: doubled in a slow phase of the machine that slowed set-up by a third.
SERVE_RATE = 5.0
#: ``serve``: share of the run spent in the open loop (100 requests in a
#: 25 s run, enough for a p90 with ten beyond); the rest is the
#: saturation phase
SERVE_OPEN_SHARE = 0.8
#: ``serve``: requests kept outstanding in the saturation phase (twice
#: the server's default 2 slots, far below its queue depth of 16)
SERVE_OUTSTANDING = 4
#: ``serve``: Zipf exponent over the hot set's rank
SERVE_ZIPF = 1.0
#: ``serve``: the saturation phase draws its mix in blocks of this many
SERVE_CYCLE = 100
#: a run whose generator sent later than this (at its tail) is invalid
LATE_BOUND_MS = 50.0
#: ``explore``: rows asked for per request
EXPLORE_LIMIT = 10
#: ``explore``: the closed loop pauses for a reference-speed sample
#: (:mod:`speed`) about this often, in seconds
EXPLORE_SLICE_S = 0.25
#: ``adhoc`` routes on join-graph shape; the server's requests carry no
#: optimizer, so it plans with its default
ADHOC_OPTIMIZER = "auto"
SERVER_OPTIMIZER = "dps"
#: connections the load generator may hold
MAX_CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

OPERATOR_KINDS = (
    ("scan(", "seed"),
    ("hpsj(", "seed_join"),
    ("filter[", "filter"),
    ("fetch(", "fetch"),
    ("select(", "selection"),
    ("mseed(", "multiway"),
    ("mjoin[", "multiway"),
)

#: every per-layer metric and its unit; a traced run reports all of them
#: (a layer a workload does not use reads 0)
PER_LAYER: Dict[str, str] = {
    "labeling.build_s": "s",
    "labeling.cover_entries": "count",
    "db.build_s": "s",
    "storage.rss_growth_mb_per_pass": "MB",
    "storage.snapshot_open_s": "s",
    "storage.logical_reads": "count",
    "storage.physical_reads": "count",
    "storage.physical_writes": "count",
    "storage.buffer_hit_frac": "fraction",
    "query.parse_ms": "ms",
    "query.optimize_ms.p50": "ms",
    "query.optimize_ms.tail": "ms",
    "query.qerror.p50": "ratio",
    "query.qerror.tail": "ratio",
    "query.physical.exec_ms.p50": "ms",
    "query.physical.exec_ms.tail": "ms",
    "query.physical.materialize_ms": "ms",
    **{
        f"query.physical.{kind}.rows_out": "count"
        for kind in ("seed", "seed_join", "filter", "fetch", "selection", "multiway")
    },
    "query.physical.centers_probed": "count",
    "query.physical.nodes_fetched": "count",
    "query.physical.peak_temporal_rows": "count",
    "query.physical.cache.lookups": "count",
    "query.physical.cache.hit_frac": "fraction",
    "query.physical.cache.evictions": "count",
    "query.physical.morsels": "count",
    "query.physical.rows_per_returned": "ratio",
    "service.queue_ms.p50": "ms",
    "service.queue_ms.tail": "ms",
    "service.exec_ms.p50": "ms",
    "service.exec_ms.tail": "ms",
    "service.wire_ms.p50": "ms",
    "service.wire_ms.tail": "ms",
    "service.response_kb": "KiB",
    "service.shed": "count",
    "service.timeouts": "count",
    "service.errors": "count",
    "loadgen.late_ms.tail": "ms",
    "loadgen.cpu_ms_per_request": "ms",
    "self_ms.query": "ms",
    "self_ms.query.parse": "ms",
    "self_ms.query.optimize": "ms",
    "self_ms.query.physical.exec": "ms",
    "self_ms.request": "ms",
    "self_ms.service.queue": "ms",
    "self_ms.service.exec": "ms",
    "trace.overhead_frac": "fraction",
}


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    workdir: str


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: wrong answers and mechanism-guard violations: any makes the run
    #: incorrect
    problems: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes[name] = note

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("... further problems not listed")


def put_tail(out: Outcome, name: str, values: Sequence[float], unit: str = "ms",
             exact: bool = False) -> None:
    value, pct, beyond = tail(values, exact)
    out.put(name, value, unit, f"p{pct:.3g} of {len(values)} samples, {beyond} beyond")


def fill_not_applicable(out: Outcome) -> None:
    for name, unit in PER_LAYER.items():
        if name not in out.metrics:
            out.put(name, 0.0, unit, "not on this workload's path")


class Verifier:
    """Checks answers against the frozen expectations.

    A full result is hashed and checked every time, so the benchmark
    keeps no in-process result rows that would count in ``adhoc``'s
    ``peak_rss_mb``.  Served answers are deterministic, so raw response
    bytes equal to an answer already verified for the same request, and
    first-10 answers equal to one already verified, pass without a
    re-check; those live in the benchmark process, not in the server.
    """

    def __init__(self, patterns: Sequence[Dict[str, Any]]):
        self.expect = {p["text"]: p for p in patterns}
        self.verified_prefix: Dict[Tuple[str, int], List[Any]] = {}
        self.verified_raw: Dict[Tuple[str, Optional[int]], bytes] = {}
        self.full: Dict[str, set] = {}

    def full_result(self, text: str, rows: Sequence[Sequence[int]]) -> Optional[str]:
        p = self.expect[text]
        why = check_rows(rows, p["rows"], p["digest"])
        return None if why is None else f"{p['name']}: {why}"

    def remember_full(self, text: str, rows: Sequence[Sequence[int]]) -> Optional[str]:
        why = self.full_result(text, rows)
        if why is None:
            self.full[text] = {tuple(r) for r in rows}
        return why

    def prefix(self, text: str, rows: Sequence[Sequence[int]], limit: int) -> Optional[str]:
        key = (text, limit)
        if self.verified_prefix.get(key) == rows:
            return None
        why = check_prefix(rows, limit, self.full[text])
        if why is None:
            self.verified_prefix[key] = list(rows)
            return None
        return f"{self.expect[text]['name']}: {why}"

    def reply(self, text: str, reply: loadgen.Reply, limit: Optional[int]) -> Optional[str]:
        """Check a served answer; raw rows byte-equal to an answer already
        verified for the same request pass without a decode."""
        key = (text, limit)
        if reply.rows_raw is not None and self.verified_raw.get(key) == reply.rows_raw:
            return None
        if limit is None:
            why = self.full_result(text, reply.rows())
        else:
            why = self.prefix(text, reply.rows(), limit)
        if why is None and reply.rows_raw is not None:
            self.verified_raw[key] = reply.rows_raw
        return why

    def columns(self, text: str, columns: Sequence[str]) -> Optional[str]:
        p = self.expect[text]
        if list(columns) != p["columns"]:
            return f"{p['name']}: columns {list(columns)}, expected {p['columns']}"
        return None


# ----------------------------------------------------------------------
# in-process layers (all workloads, traced runs)
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def status_mb(pid: str, field: str) -> float:
    """A ``/proc/<pid>/status`` memory field (``VmRSS``, ``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def current_rss_mb() -> float:
    return status_mb("self", "VmRSS")


def build_engine(graph, speed: Optional[Speed] = None):
    """``GraphEngine(graph)`` and its build time, at the reference speed
    when *speed* is given."""
    from repro import GraphEngine

    gc.collect()
    if speed is not None:
        speed.sample()
    started = time.perf_counter()
    engine = GraphEngine(graph)
    seconds = time.perf_counter() - started
    return engine, seconds * (speed.factor() if speed is not None else 1.0)


def measure_builds(out: Outcome, graph) -> None:
    """labeling.* and db.* from explicit ``build_two_hop`` +
    ``GraphEngine(graph, labeling=...)`` calls."""
    from repro import GraphEngine, build_two_hop

    gc.collect()
    t0 = time.perf_counter()
    labeling = build_two_hop(graph)
    t1 = time.perf_counter()
    GraphEngine(graph, labeling=labeling)
    t2 = time.perf_counter()
    out.put("labeling.build_s", t1 - t0, "s")
    out.put("labeling.cover_entries", labeling.cover_size(), "count")
    out.put("db.build_s", t2 - t1, "s")


def measure_snapshot_open(out: Outcome, snap: str) -> None:
    from repro import GraphEngine

    times = []
    for _ in range(SNAPSHOT_OPENS):
        gc.collect()
        t0 = time.perf_counter()
        GraphEngine.from_snapshot(snap)
        times.append(time.perf_counter() - t0)
    out.put("storage.snapshot_open_s", statistics.median(times), "s")


class LayerTotals:
    """Per-layer sums over the queries of a traced in-process pass."""

    def __init__(self) -> None:
        self.parse_ms: List[float] = []
        self.optimize_ms: List[float] = []
        self.exec_ms: List[float] = []
        self.stream_ms: List[float] = []
        self.qerror: List[float] = []
        self.io = {"logical": 0, "physical_reads": 0, "physical_writes": 0}
        self.rows_out = {kind: 0 for _, kind in OPERATOR_KINDS}
        self.centers_probed = 0
        self.nodes_fetched = 0
        self.peak_temporal_rows = 0
        self.cache = {"hits": 0, "misses": 0, "evictions": 0}
        self.morsels = 0
        self.last_op_rows = 0
        self.returned = 0

    def add_metrics(self, metrics, returned: int) -> None:
        if metrics.io is not None:
            self.io["logical"] += metrics.io.logical_reads
            self.io["physical_reads"] += metrics.io.physical_reads
            self.io["physical_writes"] += metrics.io.physical_writes
        for op in metrics.operators:
            for prefix, kind in OPERATOR_KINDS:
                if op.operator.startswith(prefix):
                    self.rows_out[kind] += op.rows_out
            self.centers_probed += op.centers_probed
            self.nodes_fetched += op.nodes_fetched
        self.peak_temporal_rows = max(self.peak_temporal_rows, metrics.peak_temporal_rows)
        if metrics.center_cache is not None:
            self.cache["hits"] += metrics.center_cache.hits
            self.cache["misses"] += metrics.center_cache.misses
            self.cache["evictions"] += metrics.center_cache.evictions
        if metrics.parallel is not None:
            self.morsels += metrics.parallel.morsels
        if metrics.operators:
            self.last_op_rows += metrics.operators[-1].rows_out
        self.returned += returned

    def report(self, out: Outcome) -> None:
        logical = self.io["logical"]
        out.put("storage.logical_reads", logical, "count")
        out.put("storage.physical_reads", self.io["physical_reads"], "count")
        out.put("storage.physical_writes", self.io["physical_writes"], "count")
        out.put("storage.buffer_hit_frac",
                (logical - self.io["physical_reads"]) / logical if logical else 0.0,
                "fraction")
        out.put("query.parse_ms", statistics.median(self.parse_ms), "ms")
        out.put("query.optimize_ms.p50", statistics.median(self.optimize_ms), "ms")
        put_tail(out, "query.optimize_ms.tail", self.optimize_ms, exact=True)
        out.put("query.qerror.p50", statistics.median(self.qerror), "ratio")
        put_tail(out, "query.qerror.tail", self.qerror, "ratio", exact=True)
        out.put("query.physical.exec_ms.p50", statistics.median(self.exec_ms), "ms")
        put_tail(out, "query.physical.exec_ms.tail", self.exec_ms, exact=True)
        out.put("query.physical.materialize_ms",
                (sum(self.exec_ms) - sum(self.stream_ms)) / len(self.exec_ms), "ms",
                "mean per query: execute_plan minus drained execute_plan_streaming, "
                "each run first on every other query")
        for kind, rows in self.rows_out.items():
            out.put(f"query.physical.{kind}.rows_out", rows, "count")
        out.put("query.physical.centers_probed", self.centers_probed, "count")
        out.put("query.physical.nodes_fetched", self.nodes_fetched, "count")
        out.put("query.physical.peak_temporal_rows", self.peak_temporal_rows, "count")
        lookups = self.cache["hits"] + self.cache["misses"]
        out.put("query.physical.cache.lookups", lookups, "count")
        out.put("query.physical.cache.hit_frac",
                self.cache["hits"] / lookups if lookups else 0.0, "fraction")
        out.put("query.physical.cache.evictions", self.cache["evictions"], "count")
        out.put("query.physical.morsels", self.morsels, "count")
        out.put("query.physical.rows_per_returned",
                self.last_op_rows / self.returned if self.returned else 0.0, "ratio")


@dataclass
class Traced:
    rows: List[Any]
    streamed: List[Any]
    plan: Any
    latency_ms: float


def traced_query(
    engine, text: str, tracer: Tracer, rid: int, totals: LayerTotals,
    optimizer: str, limit: Optional[int] = None, counters: str = "exec",
) -> Traced:
    """``parse_pattern`` -> ``plan`` -> ``execute_plan`` under spans, and
    the same plan through ``execute_plan_streaming`` drained, for the
    materialization cost.  ``reset_counters`` leaves the buffer pool as
    it is, so whichever driver runs second finds it warmer: even *rid*
    runs the materializing driver first, odd *rid* the stream.  With
    *limit* a third run stops the stream at *limit* rows.  The operator
    counters come from the materializing run (``counters="exec"``) or
    from the last stream (``"stream"``)."""
    from repro import parse_pattern
    from repro.query.physical.drivers import execute_plan, execute_plan_streaming

    def stream(limit: Optional[int]):
        engine.db.reset_counters()
        started = clock()
        result = execute_plan_streaming(
            engine.db, optimized.plan, limit=limit, center_cache=engine.center_cache
        )
        rows = list(result)
        result.close()
        return rows, result.metrics, (started, clock())

    clock = time.perf_counter
    t0 = clock()
    pattern = parse_pattern(text)
    t1 = clock()
    optimized = engine.plan(pattern, optimizer=optimizer)
    t2 = clock()
    stream_first = rid % 2 == 1
    if stream_first:
        streamed, metrics, stream_span = stream(None)
    engine.db.reset_counters()
    t3 = clock()
    result = execute_plan(engine.db, optimized.plan, center_cache=engine.center_cache)
    t4 = clock()
    if not stream_first:
        streamed, metrics, stream_span = stream(None)
    root = tracer.add("query", t0, max(t4, stream_span[1]), rid=rid)
    tracer.add("query.parse", t0, t1, root, rid)
    tracer.add("query.optimize", t1, t2, root, rid)
    tracer.add("query.physical.exec", t3, t4, root, rid)
    tracer.add("query.physical.stream", *stream_span, root, rid)

    if limit is not None:
        streamed, metrics, _ = stream(limit)

    totals.parse_ms.append((t1 - t0) * 1000.0)
    totals.optimize_ms.append((t2 - t1) * 1000.0)
    totals.exec_ms.append((t4 - t3) * 1000.0)
    totals.stream_ms.append((stream_span[1] - stream_span[0]) * 1000.0)
    totals.qerror.append(q_error(optimized.estimated_rows, len(result.rows)))
    if counters == "exec":
        totals.add_metrics(result.metrics, len(result.rows))
    else:
        totals.add_metrics(metrics, len(streamed))
    return Traced(result.rows, streamed, optimized, (t2 - t0 + t4 - t3) * 1000.0)


def report_self_times(out: Outcome, tracer: Tracer) -> None:
    for name, values in tracer.self_times().items():
        metric = f"self_ms.{name}"
        if metric in PER_LAYER:
            out.put(metric, statistics.median(values) * 1000.0, "ms", "median self time")


def layer_pass(out: Outcome, engine, verifier: Verifier, patterns, limit=None) -> None:
    """One traced in-process pass over *patterns* (serve and explore:
    the layers below the service, at the server's default settings)."""
    tracer = Tracer()
    totals = LayerTotals()
    for rid, p in enumerate(patterns):
        traced = traced_query(
            engine, p["text"], tracer, rid, totals, SERVER_OPTIMIZER, limit, "stream"
        )
        out.attempted += 1
        why = verifier.full_result(p["text"], traced.rows)
        if why is None and limit is None:
            why = verifier.full_result(p["text"], traced.streamed)
        elif why is None:
            why = verifier.prefix(p["text"], traced.streamed, limit)
        if why is not None:
            out.failed += 1
            out.problem(f"in-process {why}")
    totals.report(out)
    report_self_times(out, tracer)


# ----------------------------------------------------------------------
# adhoc
# ----------------------------------------------------------------------
def adhoc(run: Run) -> Outcome:
    from repro import GraphEngine

    out = Outcome()
    workload = frozen.read_json("adhoc.json")
    patterns = workload["patterns"]
    verifier = Verifier(patterns)
    graph = frozen.load_graph(workload)
    rng = random.Random(run.seed)

    speed = Speed()
    builds: List[float] = []

    def build_db() -> Any:
        engine, seconds = build_engine(graph, speed)
        builds.append(seconds)
        return engine.db

    db = build_db()

    latencies: List[float] = []  # ms, at the reference speed
    rss_at_pass: List[float] = []

    def one_pass(order: Sequence[Dict[str, Any]]) -> None:
        """Every pattern once, in *order*, on a fresh engine over the
        built database."""
        gc.collect()
        rss_at_pass.append(current_rss_mb())
        session = GraphEngine.from_database(db)
        physical = 0
        speed.sample()
        for p in order:
            t0 = time.perf_counter()
            result = session.match(p["text"], optimizer=ADHOC_OPTIMIZER)
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed * 1000.0 * speed.factor())
            physical += result.metrics.io.physical_reads if result.metrics.io else 0
            out.attempted += 1
            why = verifier.full_result(p["text"], result.rows)
            if why is not None:
                out.failed += 1
                out.problem(why)
        if physical <= 0:
            out.problem("guard: a pass made no physical page reads")

    # warm-up, not timed, in the frozen order: the peak depends on the
    # order (106-117 MB over seeded orders), and this way it does not
    # depend on the seed
    one_pass(patterns)
    # set-up plus one analyst session; later sessions on the same
    # database add temporal-table pages the simulated disk never frees,
    # which the traced run reports as storage.rss_growth_mb_per_pass
    session_peak_mb = peak_rss_mb()
    latencies.clear()

    if not run.trace:
        passing = 0.0  # wall time spent in passes, builds excluded
        for r in range(ADHOC_ROUNDS):
            if r > 0:
                db = None
                db = build_db()
            while passing < run.seconds * (r + 1) / ADHOC_ROUNDS:
                t0 = time.perf_counter()
                one_pass(rng.sample(patterns, len(patterns)))
                passing += time.perf_counter() - t0
        out.put("qps", 1000.0 * len(latencies) / sum(latencies), "1/s",
                f"queries over their summed time, {len(latencies) // len(patterns)} passes; "
                + speed.note())
        out.put("p50_ms", statistics.median(latencies), "ms")
        put_tail(out, "tail_ms", latencies)
        out.put("peak_rss_mb", session_peak_mb, "MB", "after set-up and one pass")
        out.put("setup_s", statistics.median(builds), "s",
                f"median of {ADHOC_ROUNDS} GraphEngine(graph) builds, one per round, "
                "at the reference speed")
        return out

    wall0 = time.perf_counter()
    while time.perf_counter() - wall0 < run.seconds / 2:
        one_pass(rng.sample(patterns, len(patterns)))

    # traced run: the same passes with each layer called explicitly
    gc.collect()
    timed = len(rss_at_pass) - 1  # the first reading precedes the warm-up
    out.put("storage.rss_growth_mb_per_pass", (current_rss_mb() - rss_at_pass[1]) / timed,
            "MB", f"resident memory growth over {timed} passes on one database")
    measure_builds(out, graph)
    tracer = Tracer()
    totals = LayerTotals()
    traced_latencies: List[float] = []
    previous_plans: Dict[str, Any] = {}
    wall0 = time.perf_counter()
    rid = 0
    while time.perf_counter() - wall0 < run.seconds / 2:
        gc.collect()
        session = GraphEngine.from_database(db)
        speed.sample()
        for p in rng.sample(patterns, len(patterns)):
            traced = traced_query(session, p["text"], tracer, rid, totals, ADHOC_OPTIMIZER)
            traced_latencies.append(traced.latency_ms * speed.factor())
            if previous_plans.get(p["text"]) is traced.plan:
                out.problem(f"guard: {p['name']} reused a cached plan")
            previous_plans[p["text"]] = traced.plan
            out.attempted += 1
            why = verifier.full_result(p["text"], traced.rows)
            if why is not None:
                out.failed += 1
                out.problem(why)
            rid += 1
    if totals.io["physical_reads"] <= 0:
        out.problem("guard: no physical page reads in the traced passes")
    totals.report(out)
    report_self_times(out, tracer)
    out.put("trace.overhead_frac",
            statistics.median(traced_latencies) / statistics.median(latencies) - 1.0,
            "fraction", "median traced query latency over untraced, minus 1, "
            "at the reference speed")
    fill_not_applicable(out)
    return out


# ----------------------------------------------------------------------
# the server (serve, explore)
# ----------------------------------------------------------------------
def _default_sigint() -> None:
    # a shell starts background jobs with SIGINT ignored, and the child
    # would inherit that; the server shuts down cleanly on SIGINT
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """``repro serve SNAP --port 0`` as a child process."""

    def __init__(self, snap: str, log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = frozen.SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = log_path
        with open(log_path, "ab") as log:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", snap, "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, env=env, text=True,
                preexec_fn=_default_sigint,
            )
        line = self.proc.stdout.readline()
        if " on " not in line:
            self.stop()
            with open(log_path) as log:
                raise RuntimeError(f"server did not start: {line!r}\n{log.read()[-2000:]}")
        address = line.split(" on ", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def vm_hwm_mb(self) -> float:
        return status_mb(str(self.proc.pid), "VmHWM")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


async def spawn_server(snap: str) -> Tuple[Server, float]:
    """A running server and the seconds from its spawn to its first
    ``ping`` answer."""
    gc.collect()
    server = Server(snap, snap + ".log")
    try:
        answered = await loadgen.ping(server.host, server.port, time.monotonic() + 60)
    except BaseException:
        server.stop()
        raise
    return server, answered - server.spawned


async def timed_spawn(snap: str, speed: Speed) -> Tuple[Server, float]:
    """:func:`spawn_server` with the spawn time at the reference speed."""
    speed.sample()
    server, seconds = await spawn_server(snap)
    return server, seconds * speed.factor()


class Rounds:
    """An untraced served run in :data:`SERVER_ROUNDS` rounds.  Each
    round times one more server spawn, then runs its share of the load
    on the server under measurement, so set-up, latency and throughput
    samples all spread over the whole run.  Every time is taken at the
    reference speed of :attr:`speed`."""

    def __init__(self, snap: str, speed: Speed, first_spawn_s: float):
        self.snap = snap
        self.speed = speed
        self.setup_s = [first_spawn_s]

    async def probe(self) -> None:
        server, seconds = await timed_spawn(self.snap, self.speed)
        server.stop()
        self.setup_s.append(seconds)


def serve_and_measure(run: Run, out: Outcome, snap: str, load) -> None:
    """Start the server and apply ``load(server, speed, rounds)`` to it
    (*rounds* is ``None`` on a traced run); untraced, then read its peak
    memory and the set-up time."""

    async def main() -> None:
        speed = Speed()
        server, first = await timed_spawn(snap, speed)
        rounds = None if run.trace else Rounds(snap, speed, first)
        try:
            await load(server, speed, rounds)
            if rounds is not None:
                out.put("peak_rss_mb", server.vm_hwm_mb(), "MB", "server VmHWM")
        finally:
            server.stop()
        if rounds is not None:
            out.put("setup_s", statistics.median(rounds.setup_s), "s",
                    f"median of {len(rounds.setup_s)} spawns, spawn to first ping "
                    "answer, one before the load and one per round, at the reference speed")

    asyncio.run(main())


def build_snapshot(run: Run, out: Outcome, name: str, graph, trace: bool) -> Tuple[Any, str]:
    from repro import save_database

    if trace:
        measure_builds(out, graph)
    engine, _ = build_engine(graph)
    snap = os.path.join(run.workdir, f"{name}.snap")
    save_database(engine.db, snap)
    return engine, snap


def check_reply(
    out: Outcome, verifier: Verifier, text: str, reply: loadgen.Reply,
    limit: Optional[int],
) -> None:
    payload = reply.payload
    out.attempted += 1
    if not payload.get("ok"):
        out.failed += 1
        out.problem(f"error {payload.get('error')}")
        return
    why = verifier.columns(text, payload["columns"]) or verifier.reply(text, reply, limit)
    if why is None:
        if limit is None:
            if payload.get("truncated"):
                why = "full result marked truncated"
        elif not (
                payload.get("truncated") and payload.get("stop_reason") == "limit"
            ):
                out.problem(
                    f"guard: first-{limit} answer not truncated at the limit "
                    f"({payload.get('truncated')}, {payload.get('stop_reason')})"
                )
    if why is not None:
        out.failed += 1
        out.problem(why)


class WireSpans:
    """Service-layer numbers from the responses, as spans: the client's
    ``request`` span with the server's ``service.queue`` and
    ``service.exec`` as its children."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.queue_ms: List[float] = []
        self.exec_ms: List[float] = []
        self.wire_ms: List[float] = []
        self.response_bytes: List[int] = []
        self.hit_rates: List[float] = []

    def add(self, reply: loadgen.Reply) -> None:
        metrics = reply.payload.get("metrics")
        if not reply.payload.get("ok") or metrics is None:
            return
        client_ms = (reply.received - reply.sent) * 1000.0
        root = self.tracer.add("request", reply.sent, reply.received, rid=reply.index)
        exec_start, exec_end = metrics["exec_span"]
        queue_s = metrics["queue_ms"] / 1000.0
        self.tracer.add("service.queue", exec_start - queue_s, exec_start, root, reply.index)
        self.tracer.add("service.exec", exec_start, exec_end, root, reply.index)
        self.queue_ms.append(metrics["queue_ms"])
        self.exec_ms.append(metrics["exec_ms"])
        self.wire_ms.append(wire_ms(client_ms, metrics["queue_ms"], metrics["exec_ms"]))
        self.response_bytes.append(reply.nbytes)
        self.hit_rates.append(metrics.get("cache_hit_rate", 0.0))

    def report(self, out: Outcome) -> None:
        for name, values in (
            ("service.queue_ms", self.queue_ms),
            ("service.exec_ms", self.exec_ms),
            ("service.wire_ms", self.wire_ms),
        ):
            out.put(f"{name}.p50", statistics.median(values), "ms")
            put_tail(out, f"{name}.tail", values, exact=True)
        out.put("service.response_kb", statistics.mean(self.response_bytes) / 1024.0, "KiB")
        # the served path's own cache reading wins over the in-process pass
        out.put("query.physical.cache.hit_frac", statistics.mean(self.hit_rates), "fraction",
                "mean response cache_hit_rate")
        report_self_times(out, self.tracer)


async def _connections(server: Server, count: int) -> List[loadgen.Connection]:
    return [await loadgen.Connection.open(server.host, server.port) for _ in range(count)]


def report_stats(out: Outcome, stats: Dict[str, Any]) -> None:
    out.put("service.shed", stats["shed"], "count")
    out.put("service.timeouts", stats["timeouts"], "count")
    out.put("service.errors", stats["errors"], "count")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve(run: Run) -> Outcome:
    out = Outcome()
    workload = frozen.read_json("serve.json")
    patterns = workload["patterns"]
    texts = [p["text"] for p in patterns]
    verifier = Verifier(patterns)
    graph = frozen.load_graph(workload)
    engine, snap = build_snapshot(run, out, "serve", graph, run.trace)
    del engine
    rng = random.Random(run.seed)
    weights = loadgen.zipf_weights(len(texts), SERVE_ZIPF)

    if run.trace:
        from repro import GraphEngine

        measure_snapshot_open(out, snap)
        layer_pass(out, GraphEngine.from_snapshot(snap), verifier, patterns)

    serve_and_measure(run, out, snap, lambda server, speed, rounds: _serve_load(
        run, out, server, speed, rounds, texts, weights, rng, verifier))
    if run.trace:
        fill_not_applicable(out)
    return out


async def _serve_load(run, out, server, speed, rounds, texts, weights, rng, verifier) -> None:
    conns = await _connections(server, MAX_CONNECTIONS)

    def on_reply(pattern_of: Callable[[int], str], wire: Optional[WireSpans] = None):
        def handle(reply: loadgen.Reply) -> None:
            check_reply(out, verifier, pattern_of(reply.index), reply, None)
            if wire is not None:
                wire.add(reply)
        return handle

    def open_plan(seconds: float) -> Tuple[List[float], List[str]]:
        offsets = loadgen.arrivals(SERVE_RATE, seconds, rng)
        return offsets, [texts[i] for i in loadgen.stratified(weights, len(offsets), rng)]

    async def open_phase(offsets: List[float], chosen: List[str],
                         wire: Optional[WireSpans] = None) -> loadgen.LoadResult:
        result = await loadgen.open_loop(
            conns, [{"op": "query", "pattern": t} for t in chosen], offsets,
            on_reply(chosen.__getitem__, wire),
        )
        count_errors(out, result)
        return result

    draws: List[str] = []  # the saturation phase's requests, in order
    drawn = 0  # how many of them have been sent

    def draw(index: int) -> str:
        while len(draws) <= index:
            draws.extend(texts[i] for i in loadgen.stratified(weights, SERVE_CYCLE, rng))
        return draws[index]

    async def saturation_phase(seconds: float) -> loadgen.LoadResult:
        nonlocal drawn
        base = drawn
        result = await loadgen.closed_loop(
            conns, lambda i: {"op": "query", "pattern": draw(base + i)}, SERVE_OUTSTANDING,
            seconds, on_reply(lambda i: draws[base + i]),
        )
        drawn += len(result.replies) + len(result.errors)
        count_errors(out, result)
        return result

    try:
        # warm-up: every hot pattern once, so plans are hot and every
        # answer has been verified in full before timing starts
        for text in texts:
            line, sent, received = await conns[0].call({"op": "query", "pattern": text})
            check_reply(out, verifier, text, loadgen.Reply(-1, line, sent, sent, received), None)
        stats0 = await loadgen.server_stats(conns[0])
        if rounds is None:
            # traced: an untraced open-loop half at the same rate is the
            # reference for the tracing overhead
            speed.sample()
            cpu0 = time.process_time()
            reference = await open_phase(*open_plan(run.seconds / 2))
            put_loadgen_cpu(out, cpu0, reference)
            reference_factor = speed.factor()
            wire = WireSpans()
            opened = await open_phase(*open_plan(run.seconds / 2), wire)
            opened_factor = speed.factor()
            late_ms = opened.late_ms
        else:
            # one open-loop schedule over the whole run, sent a slice per
            # round, with a saturation share after each slice
            open_s = run.seconds * SERVE_OPEN_SHARE
            slice_s = open_s / SERVER_ROUNDS
            offsets, chosen = open_plan(open_s)
            latencies: List[float] = []
            late_ms = []
            served, busy = 0, 0.0
            for r in range(SERVER_ROUNDS):
                await rounds.probe()
                mine = [i for i, o in enumerate(offsets)
                        if min(int(o // slice_s), SERVER_ROUNDS - 1) == r]
                speed.sample()
                part = await open_phase([offsets[i] - r * slice_s for i in mine],
                                        [chosen[i] for i in mine])
                factor = speed.factor()
                latencies += [reply.latency_ms * factor for reply in part.replies]
                late_ms += part.late_ms
                saturation = await saturation_phase(
                    run.seconds * (1.0 - SERVE_OPEN_SHARE) / SERVER_ROUNDS)
                served += len(saturation.replies)
                busy += saturation.elapsed * speed.factor()
        stats1 = await loadgen.server_stats(conns[0])
        late_value, late_pct, _ = tail(late_ms)
        if late_value > LATE_BOUND_MS:
            out.problem(f"load generator ran {late_value:.1f} ms late at p{late_pct:g} "
                        f"(bound {LATE_BOUND_MS} ms): the run is invalid")
        if stats1["shed"] != stats0["shed"]:
            out.problem(f"guard: {stats1['shed'] - stats0['shed']} requests shed "
                        f"during the load")

        if rounds is None:
            wire.report(out)
            report_stats(out, stats1)
            out.put("loadgen.late_ms.tail", late_value, "ms", f"p{late_pct:g}")
            put_overhead(out, opened, opened_factor, reference, reference_factor)
            return

        out.put("p50_ms", statistics.median(latencies), "ms",
                f"open loop at {SERVE_RATE:g}/s from scheduled send time; "
                f"generator late {fmt(late_value)} ms at p{late_pct:g}")
        put_tail(out, "tail_ms", latencies)
        out.put("qps", served / busy, "1/s",
                f"saturation, {SERVE_OUTSTANDING} outstanding, {served} requests; "
                + speed.note())
    finally:
        for conn in conns:
            await conn.close()


def count_errors(out: Outcome, result: loadgen.LoadResult) -> None:
    for err in result.errors:
        out.attempted += 1
        out.failed += 1
        out.problem(err)


def put_loadgen_cpu(out: Outcome, cpu0: float, result: loadgen.LoadResult) -> None:
    """The benchmark process's CPU time per request over an untraced
    phase: what the generator and the answer checks take from the CPU
    the server shares with them."""
    out.put("loadgen.cpu_ms_per_request",
            (time.process_time() - cpu0) * 1000.0 / len(result.replies), "ms",
            f"over the untraced half, {len(result.replies)} requests")


def put_overhead(out: Outcome, traced: loadgen.LoadResult, traced_factor: float,
                 reference: loadgen.LoadResult, reference_factor: float) -> None:
    """The tracing overhead, from the two halves of a traced run, each
    at the reference speed (:mod:`speed`): the machine's speed can
    drift by more than the overhead between them."""
    out.put("trace.overhead_frac",
            statistics.median(r.latency_ms for r in traced.replies) * traced_factor
            / (statistics.median(r.latency_ms for r in reference.replies) * reference_factor)
            - 1.0,
            "fraction", "median traced latency over untraced, minus 1, at the reference speed")


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------
def explore(run: Run) -> Outcome:
    out = Outcome()
    workload = frozen.read_json("explore.json")
    patterns = workload["patterns"]
    texts = [p["text"] for p in patterns]
    verifier = Verifier(patterns)
    graph = frozen.load_graph(workload)
    engine, snap = build_snapshot(run, out, "explore", graph, run.trace)
    # the full results, verified against the frozen digests, are what
    # every first-10 answer is checked against
    for text in texts:
        why = verifier.remember_full(text, list(engine.match_iter(text)))
        if why is not None:
            out.attempted += 1
            out.failed += 1
            out.problem(f"in-process {why}")
    del engine
    rng = random.Random(run.seed)

    if run.trace:
        from repro import GraphEngine

        measure_snapshot_open(out, snap)
        layer_pass(out, GraphEngine.from_snapshot(snap), verifier, patterns,
                   limit=EXPLORE_LIMIT)

    serve_and_measure(run, out, snap, lambda server, speed, rounds: _explore_load(
        run, out, server, speed, rounds, texts, rng, verifier))
    if run.trace:
        fill_not_applicable(out)
    return out


async def _explore_load(run, out, server, speed, rounds, texts, rng, verifier) -> None:
    (conn,) = await _connections(server, 1)
    chosen: List[str] = []  # every request's pattern, in order
    issued = 0  # how many of them have been sent

    def pattern(index: int) -> str:
        while len(chosen) <= index:
            chosen.extend(rng.sample(texts, len(texts)))
        return chosen[index]

    async def phase(seconds: float, wire: Optional[WireSpans] = None) -> loadgen.LoadResult:
        nonlocal issued
        base = issued

        def on_reply(reply: loadgen.Reply) -> None:
            check_reply(out, verifier, chosen[base + reply.index], reply, EXPLORE_LIMIT)
            if wire is not None:
                wire.add(reply)

        result = await loadgen.closed_loop(
            [conn],
            lambda i: {"op": "query", "pattern": pattern(base + i), "limit": EXPLORE_LIMIT},
            1, seconds, on_reply,
        )
        issued += len(result.replies) + len(result.errors)
        count_errors(out, result)
        return result

    try:
        # warm-up: every pattern once, so plans are hot before timing
        for text in texts:
            line, sent, received = await conn.call(
                {"op": "query", "pattern": text, "limit": EXPLORE_LIMIT}
            )
            check_reply(out, verifier, text, loadgen.Reply(-1, line, sent, sent, received),
                        EXPLORE_LIMIT)
        if rounds is None:
            speed.sample()
            cpu0 = time.process_time()
            reference = await phase(run.seconds / 2)
            put_loadgen_cpu(out, cpu0, reference)
            reference_factor = speed.factor()
            wire = WireSpans()
            result = await phase(run.seconds / 2, wire)
            result_factor = speed.factor()
            wire.report(out)
            report_stats(out, await loadgen.server_stats(conn))
            out.put("loadgen.late_ms.tail", 0.0, "ms", "closed loop: never late")
            put_overhead(out, result, result_factor, reference, reference_factor)
            return
        latencies: List[float] = []
        busy = 0.0
        slices = max(1, round(run.seconds / SERVER_ROUNDS / EXPLORE_SLICE_S))
        for _ in range(SERVER_ROUNDS):
            await rounds.probe()
            speed.sample()
            for _ in range(slices):
                result = await phase(run.seconds / SERVER_ROUNDS / slices)
                factor = speed.factor()
                latencies += [reply.latency_ms * factor for reply in result.replies]
                busy += result.elapsed * factor
        out.put("qps", len(latencies) / busy, "1/s",
                "closed loop, 1 client; " + speed.note())
        out.put("p50_ms", statistics.median(latencies), "ms")
        put_tail(out, "tail_ms", latencies)
    finally:
        await conn.close()


WORKLOADS = {"adhoc": adhoc, "serve": serve, "explore": explore}
END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}
