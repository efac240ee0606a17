"""Versioned binary snapshot format with mmap-backed zero-copy loading.

The offline phase (2-hop cover, base tables, cluster R-join index,
W-table, catalog) is the expensive part of the system; the JSON persist
path (:mod:`repro.db.persist` v1) stores only graph + labeling and
*recomputes* every downstream structure on load — cold start is
O(rebuild), and the JSON codes blow up memory several-fold versus the
``array('q')`` representation the batch kernels already use.  This module
defines a single-file binary snapshot holding every offline structure as
delta-encoded ``array('q')`` columns, written with :mod:`struct` /
``array.tobytes`` and read back through :mod:`mmap`:

* loading verifies the header, the section table and every section's
  CRC32, then serves all reads out of the mapping — directory and offset
  columns are ``memoryview.cast('q')`` views straight into the file
  (zero-copy), while per-row payloads (graph codes, subclusters, W-table
  center lists) are delta-decoded lazily on first probe and memoized by
  their consumers (:class:`~repro.labeling.twohop.TwoHopLabeling`'s
  array cache, :class:`~repro.db.join_index.SnapshotRJoinIndex`'s leaf
  memo, and the engine's cross-query ``CenterCache``);
* nothing is rebuilt: no base-table inserts, no cluster scan, no catalog
  recomputation — those structures materialize on demand.

This project-specific layering rule is enforced by
``lint/mmap-outside-snapshot``: :mod:`mmap` and :mod:`struct` imports are
confined to this module, so every binary-layout assumption lives in one
audited place.

On-disk layout (all integers little-endian, sections 8-byte aligned)::

    header    magic "RGPMSNAP" + u32 version + u32 flags          16 B
    sections  raw bytes, 8-byte aligned
    TOC       per section: 16 B name + u64 offset + u64 length
              + u32 crc32 + u32 reserved                          40 B
    footer    u64 toc_offset + u64 toc_length + u32 prefix_crc
              + u32 section_count + magic                         32 B

``prefix_crc`` is the CRC32 of *everything before the footer* (header,
sections, alignment padding and the TOC), so in combination with the
footer's own self-describing fields — each checked against the file size
and the magic — every byte of the file is covered: a truncated file, a
flipped byte anywhere, an unknown version or a foreign byte order all
raise :class:`SnapshotError` at :meth:`Snapshot.open` — never garbage
query results.  The per-section CRCs in the TOC allow the same check per
section (and localize the damage when it fails).

Run encoding: every sorted id run (a node's code, a subcluster, a
W-table center list, the sorted edge source column) is stored in one of
two layouts, selected by the ``FLAG_RAW_RUNS`` header flag:

* **delta** (``flags`` bit 0 clear — the PR 5 layout): first value raw,
  each subsequent value the difference from its predecessor; decoding is
  one :func:`itertools.accumulate` pass per touched row.
* **raw** (``flags`` bit 0 set — the default the writer emits): the
  absolute sorted values themselves.  Both layouts occupy exactly the
  same bytes (``n`` int64s per ``n``-element run — fixed-width columns
  gain nothing from small deltas), but raw runs are directly usable as
  ``memoryview.cast('q')`` slices, which is what makes the *blessed view
  API* below zero-copy: ``in_code_view``/``out_code_view``/
  ``wtable_view``/``subcluster_run_view``/``subcluster_views_at``/
  ``extent_view`` hand the batch kernels sorted int64 slices straight
  into the mapping, no tuple or array materialization at all.  Raw
  snapshots additionally carry the ``extoff``/``extnodes`` sections (the
  per-label node columns the seed scan reads).  The mmap confinement
  rules (``mmap/view-escape``/``mmap/view-held``) recognize exactly this
  blessed surface: its slices may flow along the read path (db, labeling,
  physical operators) but must never be stored on objects that outlive
  the snapshot — see :mod:`repro.analysis.contracts`.

Because a pool of process workers may have the same file mapped
(the service's :class:`~repro.query.physical.parallel.WorkerPool`
re-opens the snapshot by path inside each worker), :meth:`Snapshot.
close` refuses to run while registered holders exist: pools
:meth:`acquire` the snapshot on construction and :meth:`release` it on
shutdown, and a premature ``close()`` raises :class:`SnapshotError`
naming the live pool instead of poisoning its queries mid-flight.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

SNAPSHOT_MAGIC = b"RGPMSNAP"
SNAPSHOT_VERSION = 1

#: header flag bit: run sections store raw absolute values (zero-copy
#: slice-addressable) instead of delta-encoded differences
FLAG_RAW_RUNS = 1

#: all flag bits this build understands; unknown bits are rejected
_KNOWN_FLAGS = FLAG_RAW_RUNS

_HEADER = struct.Struct("<8sII")
_TOC_ENTRY = struct.Struct("<16sQQII")
_FOOTER = struct.Struct("<QQII8s")

#: subcluster side tags in the ``subdir`` section
SIDE_F = 0
SIDE_T = 1

#: the sections a well-formed snapshot must contain, in file order
SECTION_NAMES = (
    "meta",        # counters: nodes, edges, labels, centers, wpairs, subruns
    "labelnames",  # NUL-joined UTF-8 label dictionary (id = position)
    "nodelabels",  # per-node label id                                  [n]
    "edges",       # delta-encoded sorted src column + raw dst column  [2E]
    "inoff",       # CSR offsets into inval, in elements              [n+1]
    "inval",       # per-node in-code, delta-encoded
    "outoff",      # CSR offsets into outval                          [n+1]
    "outval",      # per-node out-code, delta-encoded
    "wdir",        # W-table directory: (x_id, y_id) per pair          [2P]
    "woff",        # CSR offsets into wval                            [P+1]
    "wval",        # per-pair center list, delta-encoded
    "centers",     # sorted center ids                                  [C]
    "suboff",      # per-center row offsets into subdir               [C+1]
    "subdir",      # (side, label_id, value_offset, count) per run     [4R]
    "subval",      # subcluster node runs, delta-encoded
    "extents",     # catalog: extent size per label id                  [L]
    "catpairs",    # catalog: (x, y, pair_estimate, centers, volume)   [5K]
)

#: extra sections a raw-runs snapshot must also contain: the per-label
#: node columns (CSR over label ids) the mmap-native seed scan slices
RAW_SECTION_NAMES = (
    "extoff",      # CSR offsets into extnodes, one run per label      [L+1]
    "extnodes",    # sorted node ids grouped by label id                 [n]
)

_META_FIELDS = 6


class SnapshotError(Exception):
    """The file is not a readable snapshot (corrupt, truncated, foreign)."""


def _require_little_endian() -> None:
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        raise SnapshotError(
            "binary snapshots are little-endian; this platform is "
            f"{sys.byteorder}-endian"
        )


def is_snapshot(path: str) -> bool:
    """True if *path* starts with the binary snapshot magic bytes."""
    try:
        with open(path, "rb") as f:
            return f.read(len(SNAPSHOT_MAGIC)) == SNAPSHOT_MAGIC
    except OSError:
        return False


# ----------------------------------------------------------------------
# encoding helpers
# ----------------------------------------------------------------------
def _delta(values: Sequence[int]) -> Iterator[int]:
    """First value raw, then successive differences."""
    previous = 0
    first = True
    for value in values:
        if first:
            yield value
            first = False
        else:
            yield value - previous
        previous = value


def _encode_runs(
    runs: Sequence[Sequence[int]], raw: bool = False
) -> Tuple[array, array]:
    """CSR-encode sorted id runs: (element offsets [len+1], values).

    ``raw`` stores the absolute sorted values (slice-addressable without
    a decode pass); otherwise values are delta-encoded.  Both layouts are
    byte-for-byte the same size.
    """
    offsets = array("q", [0])
    values = array("q")
    for run in runs:
        values.extend(run if raw else _delta(run))
        offsets.append(len(values))
    return offsets, values


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class _SnapshotWriter:
    """Accumulates named sections and writes the final single file."""

    def __init__(self, flags: int = 0) -> None:
        self._flags = flags
        self._sections: List[Tuple[str, bytes]] = []

    def add(self, name: str, payload: bytes) -> None:
        if len(name.encode("ascii")) > 16:
            raise ValueError(f"section name {name!r} exceeds 16 bytes")
        self._sections.append((name, payload))

    def add_array(self, name: str, values: array) -> None:
        self.add(name, values.tobytes())

    def tobytes(self) -> bytes:
        out = bytearray(
            _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self._flags)
        )
        toc = bytearray()
        for name, payload in self._sections:
            if pad := (-len(out)) % 8:
                out += b"\x00" * pad
            toc += _TOC_ENTRY.pack(
                name.encode("ascii").ljust(16, b"\x00"),
                len(out),
                len(payload),
                zlib.crc32(payload),
                0,
            )
            out += payload
        if pad := (-len(out)) % 8:
            out += b"\x00" * pad
        toc_offset = len(out)
        out += toc
        out += _FOOTER.pack(
            toc_offset,
            len(toc),
            zlib.crc32(bytes(out)),  # prefix CRC: every byte before the footer
            len(self._sections),
            SNAPSHOT_MAGIC,
        )
        return bytes(out)


def encode_snapshot(db, raw_runs: bool = True) -> bytes:
    """Serialize a built :class:`~repro.db.database.GraphDatabase`.

    Reads only the public surfaces (graph, labeling codes, join-index
    leaves, W-table entries, catalog stats), so it works identically on
    an eagerly-built database and on a snapshot-loaded one — which is
    what makes save → load → save byte-stable.

    ``raw_runs`` selects the run layout: ``True`` (default) stores raw
    absolute sorted values plus the per-label node columns, enabling the
    zero-copy view API; ``False`` reproduces the delta-encoded legacy
    layout byte for byte.
    """
    _require_little_endian()
    graph = db.graph
    labeling = db.labeling
    index = db.join_index
    catalog = db.catalog
    n = graph.node_count

    label_names = sorted(set(graph.labels())) if n else []
    label_ids = {name: i for i, name in enumerate(label_names)}

    writer = _SnapshotWriter(flags=FLAG_RAW_RUNS if raw_runs else 0)
    writer.add(
        "labelnames", b"\x00".join(name.encode("utf-8") for name in label_names)
    )
    writer.add_array(
        "nodelabels", array("q", (label_ids[graph.label(v)] for v in range(n)))
    )

    edges = sorted(graph.edges())
    sources = [u for u, _ in edges]
    edge_values = array("q", sources if raw_runs else _delta(sources))
    edge_values.extend(v for _, v in edges)
    writer.add_array("edges", edge_values)

    in_off, in_val = _encode_runs(
        [sorted(labeling.in_codes[v]) for v in range(n)], raw=raw_runs
    )
    out_off, out_val = _encode_runs(
        [sorted(labeling.out_codes[v]) for v in range(n)], raw=raw_runs
    )
    writer.add_array("inoff", in_off)
    writer.add_array("inval", in_val)
    writer.add_array("outoff", out_off)
    writer.add_array("outval", out_val)

    wdir = array("q")
    wruns: List[Sequence[int]] = []
    for (x_label, y_label), centers in sorted(index.wtable_items()):
        wdir.extend((label_ids[x_label], label_ids[y_label]))
        wruns.append(centers)
    w_off, w_val = _encode_runs(wruns, raw=raw_runs)
    writer.add_array("wdir", wdir)
    writer.add_array("woff", w_off)
    writer.add_array("wval", w_val)

    center_ids = array("q")
    sub_off = array("q", [0])
    sub_dir = array("q")
    sub_runs: List[Sequence[int]] = []
    run_count = 0
    value_offset = 0
    for center, f_sub, t_sub in index.cluster_items():
        center_ids.append(center)
        for side, subclusters in ((SIDE_F, f_sub), (SIDE_T, t_sub)):
            for label in sorted(subclusters):
                nodes = subclusters[label]
                if not nodes:
                    continue
                sub_dir.extend((side, label_ids[label], value_offset, len(nodes)))
                sub_runs.append(nodes)
                value_offset += len(nodes)
                run_count += 1
        sub_off.append(run_count)
    _, sub_val = _encode_runs(sub_runs, raw=raw_runs)
    writer.add_array("centers", center_ids)
    writer.add_array("suboff", sub_off)
    writer.add_array("subdir", sub_dir)
    writer.add_array("subval", sub_val)

    if raw_runs:
        # per-label node columns: one sorted run per label id, in label-id
        # order — ascending v keeps each run sorted without a second pass
        extent_runs: List[List[int]] = [[] for _ in label_names]
        for v in range(n):
            extent_runs[label_ids[graph.label(v)]].append(v)
        ext_off, ext_nodes = _encode_runs(extent_runs, raw=True)
        writer.add_array("extoff", ext_off)
        writer.add_array("extnodes", ext_nodes)

    writer.add_array(
        "extents",
        array("q", (catalog.extent_size(name) for name in label_names)),
    )
    cat_pairs = array("q")
    for (x_label, y_label), stats in sorted(catalog.all_pairs().items()):
        cat_pairs.extend(
            (
                label_ids[x_label],
                label_ids[y_label],
                stats.pair_estimate,
                stats.center_count,
                stats.fetch_volume,
            )
        )
    writer.add_array("catpairs", cat_pairs)

    meta = array(
        "q",
        (
            n,
            len(edges),
            len(label_names),
            len(center_ids),
            len(wruns),
            run_count,
        ),
    )
    writer._sections.insert(0, ("meta", meta.tobytes()))
    return writer.tobytes()


def write_snapshot(db, path: str, raw_runs: bool = True) -> None:
    """Write *db* to *path* atomically (tmp file + fsync + rename).

    The durability sequence is the crash-safe one: flush and ``fsync``
    the temp file before :func:`os.replace`, then ``fsync`` the directory
    entry so a power cut can neither promote a truncated temp file nor
    lose the rename itself.
    """
    payload = encode_snapshot(db, raw_runs=raw_runs)
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp_path, path)
    _fsync_directory(os.path.dirname(os.path.abspath(path)))


def _fsync_directory(directory: str) -> None:
    """Flush a directory entry (best effort where the OS allows it)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not supported on this filesystem
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
class Snapshot:
    """One open snapshot file: verified header/TOC, lazily decoded reads.

    :meth:`open` maps the file and checks structure + every section CRC
    up front (one sequential pass over the mapping — cheap compared to a
    JSON parse); after that all accessors are either zero-copy
    ``memoryview`` slices of the mapping or on-demand delta decodes of
    exactly the rows asked for.  ``decode_stats`` counts the decodes, so
    tests can pin the laziness contract.
    """

    def __init__(self, path: str, buffer: bytes, view: memoryview,
                 sections: Dict[str, Tuple[int, int]], mapped: Optional[mmap.mmap],
                 flags: int = 0):
        self.path = path
        self._buffer = buffer
        self._view = view
        self._sections = sections
        self._mmap = mapped
        self._closed = False
        self.flags = flags
        #: run sections hold raw absolute values → view API available
        self.raw_runs = bool(flags & FLAG_RAW_RUNS)
        #: live holders (worker pools) keyed by display name → refcount;
        #: close() refuses while any remain
        self._owners: Dict[str, int] = {}
        self.decode_stats: Dict[str, int] = {
            "code_rows": 0, "wtable_pairs": 0, "subcluster_runs": 0,
        }
        meta = self._ints("meta")
        if len(meta) != _META_FIELDS:
            raise SnapshotError(
                f"meta section has {len(meta)} fields, expected {_META_FIELDS}"
            )
        (self.node_count, self.edge_count, self.label_count,
         self.center_count, self.wtable_pair_count, self.subcluster_runs) = meta
        raw_names = bytes(self._raw("labelnames"))
        self.label_names: List[str] = (
            [part.decode("utf-8") for part in raw_names.split(b"\x00")]
            if raw_names else []
        )
        if len(self.label_names) != self.label_count:
            raise SnapshotError(
                f"label dictionary holds {len(self.label_names)} names but "
                f"meta declares {self.label_count}"
            )
        self._check_geometry()

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str) -> "Snapshot":
        """Map and verify *path*; raises :class:`SnapshotError` on any
        structural problem, bad CRC, short file or foreign format."""
        _require_little_endian()
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise SnapshotError(f"cannot open snapshot {path!r}: {exc}") from exc
        with f:
            size = os.fstat(f.fileno()).st_size
            if size < _HEADER.size + _FOOTER.size:
                raise SnapshotError(
                    f"{path!r} is {size} bytes — too short for a snapshot"
                )
            mapped: Optional[mmap.mmap]
            try:
                mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
                buffer: bytes = mapped  # type: ignore[assignment]
            except (ValueError, OSError):  # pragma: no cover - no-mmap fs
                mapped = None
                f.seek(0)
                buffer = f.read()
        try:
            sections, flags = cls._verify(path, buffer, size)
            return cls(path, buffer, memoryview(buffer), sections, mapped,
                       flags=flags)
        except SnapshotError:
            if mapped is not None:
                mapped.close()
            raise

    @staticmethod
    def _verify(
        path: str, buffer, size: int
    ) -> Tuple[Dict[str, Tuple[int, int]], int]:
        magic, version, flags = _HEADER.unpack_from(buffer, 0)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path!r} does not start with snapshot magic")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path!r} is snapshot version {version}; this build reads "
                f"version {SNAPSHOT_VERSION}"
            )
        if unknown := flags & ~_KNOWN_FLAGS:
            raise SnapshotError(
                f"{path!r} sets unknown header flag bits {unknown:#x}; this "
                f"build understands {_KNOWN_FLAGS:#x}"
            )
        toc_offset, toc_length, prefix_crc, section_count, end_magic = (
            _FOOTER.unpack_from(buffer, size - _FOOTER.size)
        )
        if end_magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path!r} footer magic missing (truncated?)")
        if (
            toc_offset + toc_length + _FOOTER.size != size
            or toc_length != section_count * _TOC_ENTRY.size
        ):
            raise SnapshotError(f"{path!r} section table geometry is corrupt")
        # the prefix CRC covers header, sections, padding and TOC — with
        # the footer's self-checked fields, every byte of the file
        if zlib.crc32(bytes(buffer[:size - _FOOTER.size])) != prefix_crc:
            raise SnapshotError(f"{path!r} fails its whole-file CRC")
        toc = bytes(buffer[toc_offset:toc_offset + toc_length])
        sections: Dict[str, Tuple[int, int]] = {}
        for position in range(section_count):
            raw_name, offset, length, crc, _reserved = _TOC_ENTRY.unpack_from(
                toc, position * _TOC_ENTRY.size
            )
            name = raw_name.rstrip(b"\x00").decode("ascii")
            if offset + length > toc_offset:
                raise SnapshotError(
                    f"{path!r} section {name!r} runs past the section table"
                )
            if zlib.crc32(bytes(buffer[offset:offset + length])) != crc:
                raise SnapshotError(f"{path!r} section {name!r} fails its CRC")
            sections[name] = (offset, length)
        required = SECTION_NAMES + (
            RAW_SECTION_NAMES if flags & FLAG_RAW_RUNS else ()
        )
        missing = [name for name in required if name not in sections]
        if missing:
            raise SnapshotError(f"{path!r} is missing section(s) {missing}")
        return sections, flags

    def _check_geometry(self) -> None:
        """Cross-check declared counts against section sizes."""
        expectations = {
            "nodelabels": self.node_count,
            "edges": 2 * self.edge_count,
            "inoff": self.node_count + 1,
            "outoff": self.node_count + 1,
            "wdir": 2 * self.wtable_pair_count,
            "woff": self.wtable_pair_count + 1,
            "centers": self.center_count,
            "suboff": self.center_count + 1,
            "subdir": 4 * self.subcluster_runs,
            "extents": self.label_count,
        }
        if self.raw_runs:
            expectations["extoff"] = self.label_count + 1
            expectations["extnodes"] = self.node_count
        for name, expected in expectations.items():
            actual = len(self._ints(name))
            if actual != expected:
                raise SnapshotError(
                    f"section {name!r} holds {actual} values, expected "
                    f"{expected} from the meta counters"
                )
        if len(self._ints("catpairs")) % 5:
            raise SnapshotError("section 'catpairs' is not rows of 5 values")

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def acquire(self, owner: str) -> None:
        """Register *owner* (e.g. a worker pool) as a live holder.

        While holders are registered, :meth:`close` raises instead of
        unmapping the file out from under them.  Re-entrant: the same
        owner name may acquire more than once and must release as often.
        """
        if self._closed:
            raise SnapshotError(
                f"cannot acquire closed snapshot {self.path!r} for {owner}"
            )
        self._owners[owner] = self._owners.get(owner, 0) + 1

    def release(self, owner: str) -> None:
        """Drop one registration of *owner*; unknown owners are ignored
        (shutdown paths may run after an error unwound the acquire)."""
        count = self._owners.get(owner, 0)
        if count <= 1:
            self._owners.pop(owner, None)
        else:
            self._owners[owner] = count - 1

    def close(self) -> None:
        """Release the mapping; idempotent.

        Refuses with :class:`SnapshotError` while holders registered via
        :meth:`acquire` (live worker pools) remain — closing the file a
        pool of workers has mapped would poison their queries mid-flight,
        so the error names the holders instead.

        Any view handed out earlier becomes invalid: further section
        access on this object raises ``SnapshotError("snapshot is
        closed")``.  If zero-copy views are still alive the mapping
        cannot be unmapped — that raises ``BufferError`` (or
        :class:`repro.analysis.sanitizer.SanitizerError` under
        ``REPRO_SANITIZE=1``, naming the ``mmap/view-held`` hazard the
        deep checker polices statically).
        """
        if self._closed:
            return
        if self._owners:
            holders = ", ".join(sorted(self._owners))
            raise SnapshotError(
                f"cannot close snapshot {self.path!r}: still held by "
                f"{holders}; shut the pool down first"
            )
        self._closed = True
        self._view.release()
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError as exc:
                # imported lazily: the analysis layer must not become a
                # load-time dependency of the storage layer
                from ..analysis.sanitizer import SanitizerError, sanitize_enabled

                message = (
                    f"snapshot {self.path!r} closed while zero-copy views "
                    f"into its mapping are still alive: {exc}"
                )
                if sanitize_enabled():
                    raise SanitizerError(message) from exc
                raise BufferError(message) from exc
            self._mmap = None

    def _raw(self, name: str) -> memoryview:
        if self._closed:
            raise SnapshotError("snapshot is closed")
        offset, length = self._sections[name]
        return self._view[offset:offset + length]

    def _ints(self, name: str) -> memoryview:
        """A section as a zero-copy int64 view straight into the mapping."""
        return self._raw(name).cast("q")

    # ------------------------------------------------------------------
    # graph
    # ------------------------------------------------------------------
    def node_label_ids(self) -> memoryview:
        return self._ints("nodelabels")

    def node_labels(self) -> Iterator[str]:
        names = self.label_names
        return (names[i] for i in self.node_label_ids())

    def edges(self) -> Iterator[Tuple[int, int]]:
        values = self._ints("edges")
        count = self.edge_count
        if self.raw_runs:
            return zip(values[:count], values[count:])
        return zip(accumulate(values[:count]), values[count:])

    def build_graph(self):
        """Reconstruct the :class:`~repro.graph.digraph.DiGraph` eagerly.

        The graph itself stays materialized (labels and extents are read
        constantly and it is O(V+E) small); laziness is reserved for the
        quadratic-ish structures — codes, subclusters, base tables.
        """
        from ..graph.digraph import DiGraph

        graph = DiGraph()
        graph.add_nodes(self.node_labels())
        graph.add_edges(self.edges())
        return graph

    # ------------------------------------------------------------------
    # 2-hop codes
    # ------------------------------------------------------------------
    def _code_row(self, offsets_name: str, values_name: str, node: int) -> array:
        if not (0 <= node < self.node_count):
            raise IndexError(f"node {node} outside snapshot range")
        offsets = self._ints(offsets_name)
        values = self._ints(values_name)
        self.decode_stats["code_rows"] += 1
        run = values[offsets[node]:offsets[node + 1]]
        return array("q", run if self.raw_runs else accumulate(run))

    def in_code_array(self, node: int) -> array:
        """``in(x)`` as a freshly decoded sorted ``array('q')``."""
        return self._code_row("inoff", "inval", node)

    def out_code_array(self, node: int) -> array:
        """``out(x)`` as a freshly decoded sorted ``array('q')``."""
        return self._code_row("outoff", "outval", node)

    # ------------------------------------------------------------------
    # W-table
    # ------------------------------------------------------------------
    def wtable_pairs(self) -> List[Tuple[str, str]]:
        names = self.label_names
        wdir = self._ints("wdir")
        return [
            (names[wdir[2 * i]], names[wdir[2 * i + 1]])
            for i in range(self.wtable_pair_count)
        ]

    def wtable_sizes(self) -> Dict[Tuple[str, str], int]:
        offsets = self._ints("woff")
        return {
            pair: offsets[i + 1] - offsets[i]
            for i, pair in enumerate(self.wtable_pairs())
        }

    def wtable_centers(self, position: int) -> array:
        """Decode the center list of the *position*-th W-table pair."""
        offsets = self._ints("woff")
        values = self._ints("wval")
        self.decode_stats["wtable_pairs"] += 1
        run = values[offsets[position]:offsets[position + 1]]
        return array("q", run if self.raw_runs else accumulate(run))

    # ------------------------------------------------------------------
    # cluster directory
    # ------------------------------------------------------------------
    def centers(self) -> memoryview:
        """The sorted center-id column, zero-copy."""
        return self._ints("centers")

    def center_position(self, center: int) -> int:
        """Index of *center* in the directory, or -1 if absent."""
        centers = self._ints("centers")
        position = bisect_left(centers, center)
        if position < len(centers) and centers[position] == center:
            return position
        return -1

    def subclusters_at(
        self, position: int
    ) -> Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]:
        """Decode the ``({X: F-subcluster}, {Y: T-subcluster})`` leaf of
        the *position*-th center (both labeled maps, sorted tuples)."""
        sub_off = self._ints("suboff")
        sub_dir = self._ints("subdir")
        sub_val = self._ints("subval")
        names = self.label_names
        f_sub: Dict[str, Tuple[int, ...]] = {}
        t_sub: Dict[str, Tuple[int, ...]] = {}
        for run in range(sub_off[position], sub_off[position + 1]):
            side, label_id, value_offset, count = sub_dir[4 * run:4 * run + 4]
            values = sub_val[value_offset:value_offset + count]
            nodes = tuple(values if self.raw_runs else accumulate(values))
            self.decode_stats["subcluster_runs"] += 1
            (f_sub if side == SIDE_F else t_sub)[names[label_id]] = nodes
        return f_sub, t_sub

    # ------------------------------------------------------------------
    # blessed view API (raw-runs snapshots only): zero-copy sorted int64
    # slices straight into the mapping, for the batch kernels.  The mmap
    # confinement rules recognize exactly these producers — their slices
    # may flow along the read path but must never outlive the snapshot.
    # ------------------------------------------------------------------
    @property
    def supports_views(self) -> bool:
        """True when the file layout allows the zero-copy view API."""
        return self.raw_runs

    def _require_views(self) -> None:
        if not self.raw_runs:
            raise SnapshotError(
                f"snapshot {self.path!r} is delta-encoded (legacy layout); "
                "the zero-copy view API needs a raw-runs snapshot — "
                "rewrite it with write_snapshot(db, path)"
            )

    def _run_view(self, offsets_name: str, values_name: str,
                  position: int) -> memoryview:
        offsets = self._ints(offsets_name)
        values = self._ints(values_name)
        return values[offsets[position]:offsets[position + 1]]

    def in_code_view(self, node: int) -> memoryview:
        """``in(x)`` as a zero-copy sorted slice of the mapping."""
        self._require_views()
        if not (0 <= node < self.node_count):
            raise IndexError(f"node {node} outside snapshot range")
        return self._run_view("inoff", "inval", node)

    def out_code_view(self, node: int) -> memoryview:
        """``out(x)`` as a zero-copy sorted slice of the mapping."""
        self._require_views()
        if not (0 <= node < self.node_count):
            raise IndexError(f"node {node} outside snapshot range")
        return self._run_view("outoff", "outval", node)

    def wtable_view(self, position: int) -> memoryview:
        """Center list of the *position*-th W-table pair, zero-copy."""
        self._require_views()
        return self._run_view("woff", "wval", position)

    def subcluster_run_view(self, position: int, side: int,
                            label_id: int) -> Optional[memoryview]:
        """The ``side``/``label_id`` subcluster run of the *position*-th
        center as a zero-copy slice, or ``None`` when that run is absent
        (empty subclusters are never stored)."""
        self._require_views()
        sub_off = self._ints("suboff")
        sub_dir = self._ints("subdir")
        sub_val = self._ints("subval")
        for run in range(sub_off[position], sub_off[position + 1]):
            base = 4 * run
            if sub_dir[base] == side and sub_dir[base + 1] == label_id:
                value_offset = sub_dir[base + 2]
                count = sub_dir[base + 3]
                return sub_val[value_offset:value_offset + count]
        return None

    def subcluster_views_at(
        self, position: int
    ) -> Tuple[Dict[str, memoryview], Dict[str, memoryview]]:
        """The ``({X: F-run}, {Y: T-run})`` leaf of the *position*-th
        center with every run a zero-copy slice (view twin of
        :meth:`subclusters_at`; does not touch ``decode_stats``)."""
        self._require_views()
        sub_off = self._ints("suboff")
        sub_dir = self._ints("subdir")
        sub_val = self._ints("subval")
        names = self.label_names
        f_sub: Dict[str, memoryview] = {}
        t_sub: Dict[str, memoryview] = {}
        for run in range(sub_off[position], sub_off[position + 1]):
            side, label_id, value_offset, count = sub_dir[4 * run:4 * run + 4]
            view = sub_val[value_offset:value_offset + count]
            (f_sub if side == SIDE_F else t_sub)[names[label_id]] = view
        return f_sub, t_sub

    def extent_view(self, label_id: int) -> memoryview:
        """All node ids of *label_id*, sorted, as a zero-copy slice."""
        self._require_views()
        if not (0 <= label_id < self.label_count):
            raise IndexError(f"label id {label_id} outside snapshot range")
        return self._run_view("extoff", "extnodes", label_id)

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def extent_sizes(self) -> Dict[str, int]:
        extents = self._ints("extents")
        return {name: extents[i] for i, name in enumerate(self.label_names)}

    def catalog_pairs(self) -> Dict[Tuple[str, str], Tuple[int, int, int]]:
        """``{(X, Y): (pair_estimate, center_count, fetch_volume)}``."""
        rows = self._ints("catpairs")
        names = self.label_names
        return {
            (names[rows[i]], names[rows[i + 1]]): (
                rows[i + 2], rows[i + 3], rows[i + 4]
            )
            for i in range(0, len(rows), 5)
        }

    # ------------------------------------------------------------------
    # inspection (CLI `repro snapshot info`)
    # ------------------------------------------------------------------
    def file_size(self) -> int:
        return len(self._buffer)

    def section_table(self) -> List[Tuple[str, int, int]]:
        """``(name, offset, length)`` rows in file order."""
        return sorted(
            ((name, off, length) for name, (off, length) in self._sections.items()),
            key=lambda row: row[1],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot({self.path!r}, nodes={self.node_count}, "
            f"edges={self.edge_count}, centers={self.center_count})"
        )


__all__ = [
    "FLAG_RAW_RUNS",
    "RAW_SECTION_NAMES",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SECTION_NAMES",
    "Snapshot",
    "SnapshotError",
    "encode_snapshot",
    "is_snapshot",
    "write_snapshot",
]
