"""Reading and writing the frozen inputs under ``perfbench/data``.

A graph file holds the node labels and the edges of one data graph
(gzipped JSON, edges sorted and delta-encoded).  A workload file holds
the graph it runs on, that graph's digest, and per pattern the pattern
text, its output columns, the expected row count and the digest of the
sorted rows (:func:`measure.rows_digest`).  ``gen_inputs.py`` writes
both; the benchmark only reads them.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(BENCH_DIR, "data")
#: the program's source tree, run as shipped (it is pure Python)
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def run_seconds() -> float:
    """``run_seconds`` from the checkout's ``BENCHMARK.json``."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


class ProgramMissing(RuntimeError):
    """The checkout has no program source next to the benchmark."""


def use_program_source() -> None:
    """Make ``import repro`` load the checkout's ``src/repro``."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise ProgramMissing(f"no program source at {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def graph_payload(labels: Sequence[str], edges: Sequence[Tuple[int, int]]) -> Dict[str, Any]:
    names = sorted(set(labels))
    index = {name: i for i, name in enumerate(names)}
    deltas: List[int] = []
    prev_u = 0
    for u, v in sorted(edges):
        deltas.append(u - prev_u)
        deltas.append(v - u)
        prev_u = u
    return {
        "labels": names,
        "node_labels": [index[label] for label in labels],
        "edges_delta": deltas,
    }


def decode_graph(payload: Dict[str, Any]) -> Tuple[List[str], List[Tuple[int, int]]]:
    """``(labels per node, edges)`` from a graph payload."""
    names = payload["labels"]
    labels = [names[i] for i in payload["node_labels"]]
    deltas = payload["edges_delta"]
    edges = []
    u = 0
    for i in range(0, len(deltas), 2):
        u += deltas[i]
        edges.append((u, u + deltas[i + 1]))
    return labels, edges


def graph_digest(labels: Sequence[str], edges: Sequence[Tuple[int, int]]) -> str:
    text = json.dumps([list(labels), sorted(edges)], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_json(name: str, payload: Dict[str, Any], gz: bool = False) -> str:
    path = os.path.join(DATA_DIR, name)
    os.makedirs(DATA_DIR, exist_ok=True)
    if gz:
        raw = json.dumps(payload, separators=(",", ":")).encode()
        with open(path, "wb") as f:
            # mtime=0 keeps the file byte-identical across regenerations
            f.write(gzip.compress(raw, compresslevel=9, mtime=0))
    else:
        with open(path, "w") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
    return path


def read_json(name: str) -> Dict[str, Any]:
    path = os.path.join(DATA_DIR, name)
    if name.endswith(".gz"):
        with gzip.open(path, "rb") as f:
            return json.loads(f.read())
    with open(path) as f:
        return json.load(f)


def load_graph(workload: Dict[str, Any]):
    """The workload's data graph as a program ``DiGraph``, after checking
    the frozen file against the digest the workload recorded."""
    from repro import DiGraph

    labels, edges = decode_graph(read_json(workload["graph"]))
    if graph_digest(labels, edges) != workload["graph_digest"]:
        raise ValueError(f"{workload['graph']} does not match its recorded digest")
    graph = DiGraph()
    graph.add_nodes(labels)
    graph.add_edges(edges)
    return graph
