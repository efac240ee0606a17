"""Tests for the benchmark's own arithmetic and answer checks.

    python3 -m pytest perfbench/test_measure.py -q
"""

import json
import os

import pytest

import loadgen
from measure import (
    Span,
    Tracer,
    check_prefix,
    check_rows,
    covered,
    percentile,
    q_error,
    quartile_spread,
    rows_digest,
    samples_beyond,
    self_times,
    tail,
    wire_ms,
)
from speed import REFERENCE_S, Speed


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_keeps_ten_samples_beyond():
    # 100 samples: p90 leaves exactly 10 beyond
    value, pct, beyond = tail([float(v) for v in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    # 99 samples: p90 would leave 9, so the tail is the median
    assert tail([float(v) for v in range(1, 100)])[1:] == (50.0, 49)
    # 1000 samples: p99 leaves 10 beyond
    value, pct, beyond = tail([float(v) for v in range(1, 1001)])
    assert (value, pct, beyond) == (990.0, 99.0, 10)
    # 999 samples: p99 would leave 9, so the tail drops to p90
    value, pct, beyond = tail([float(v) for v in range(1, 1000)])
    assert (value, pct, beyond) == (900.0, 90.0, 99)
    assert samples_beyond(999, 99.0) == 9
    # p99 is the highest rung, however many samples there are
    assert tail([float(v) for v in range(1, 100001)])[1] == 99.0


def test_exact_tail_for_few_samples():
    value, pct, beyond = tail([float(v) for v in range(1, 25)], exact=True)
    assert (value, beyond) == (14.0, 10)
    assert pct == pytest.approx(100.0 * 14 / 24)
    assert tail([1.0, 2.0], exact=True)[1] == 50.0  # too few: the median
    assert tail([float(v) for v in range(68)], exact=True)[2] == 10


def test_tail_is_order_free():
    values = [float((v * 37) % 101) for v in range(101)]
    assert tail(values) == tail(sorted(values))


def test_quartile_spread_matches_statistics_quantiles():
    q1, median, q3, spread = quartile_spread([10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
    assert median == 14.5
    assert spread == pytest.approx((q3 - q1) / 14.5)


def test_q_error_symmetric_and_clamped():
    assert q_error(100, 10) == 10.0
    assert q_error(10, 100) == 10.0
    assert q_error(42, 42) == 1.0
    assert q_error(0.2, 0) == 1.0  # both clamp to one row
    assert q_error(50, 0) == 50.0


def test_wire_ms_subtracts_server_time():
    assert wire_ms(12.5, 2.0, 8.0) == pytest.approx(2.5)
    assert wire_ms(10.0, 4.0, 6.0001) == 0.0  # rounding never goes negative


def test_covered_merges_overlaps_and_clips():
    assert covered((0, 10), [(1, 3), (2, 5), (8, 12)]) == pytest.approx(6.0)
    assert covered((0, 10), [(-5, -1), (11, 12)]) == 0.0
    assert covered((0, 10), []) == 0.0


def test_self_time_from_nested_spans():
    tracer = Tracer()
    root = tracer.add("query", 0.0, 10.0, rid=1)
    parse = tracer.add("query.parse", 0.0, 1.0, root, 1)
    tracer.add("query.optimize", 1.0, 3.0, root, 1)
    execute = tracer.add("query.physical.exec", 4.0, 10.0, root, 1)
    # a grandchild is the child's, not the root's
    tracer.add("storage.read", 5.0, 9.0, execute, 1)
    del parse
    times = tracer.self_times()
    assert times["query"] == [pytest.approx(1.0)]  # 3..4 only
    assert times["query.parse"] == [pytest.approx(1.0)]
    assert times["query.physical.exec"] == [pytest.approx(2.0)]
    assert times["storage.read"] == [pytest.approx(4.0)]


def test_self_time_with_overlapping_children():
    spans = [
        Span(0, "request", 0.0, 10.0),
        Span(1, "service.queue", 1.0, 4.0, 0),
        Span(2, "service.exec", 3.0, 8.0, 0),
    ]
    assert self_times(spans)["request"] == [pytest.approx(3.0)]


def test_digest_ignores_order_and_catches_a_planted_row():
    rows = [(3, 1, 2), (1, 2, 3), (2, 9, 9)]
    digest = rows_digest(rows)
    assert rows_digest(list(reversed(rows))) == digest
    assert rows_digest([list(r) for r in rows]) == digest
    assert check_rows(rows, 3, digest) is None
    planted = [(3, 1, 2), (1, 2, 3), (2, 9, 8)]
    assert check_rows(planted, 3, digest) == "row digest mismatch"
    assert check_rows(rows[:2], 3, digest) == "2 rows, expected 3"


def test_prefix_check():
    full = {(1, 2), (3, 4), (5, 6)}
    assert check_prefix([(3, 4), (1, 2)], 2, full) is None
    assert check_prefix([(3, 4), (9, 9)], 2, full) == "row outside the full result"
    assert check_prefix([(3, 4), (3, 4)], 2, full) == "duplicate rows"
    assert check_prefix([(3, 4)], 10, full) == "1 rows, expected 3"


def _line(payload):
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def test_reply_decoding_cuts_out_raw_rows():
    line = _line({"id": 12, "ok": True, "columns": ["a", "b"], "rows": [[1, 2], [3, 4]],
                  "truncated": False, "stop_reason": None, "metrics": {"exec_ms": 1.5}})
    assert loadgen.peek_id(line) == 12
    payload, raw = loadgen.decode(line)
    assert raw == b"[[1,2],[3,4]]"
    assert payload["metrics"] == {"exec_ms": 1.5} and payload["rows"] is None
    reply = loadgen.Reply(0, line, 0.0, 0.0, 0.01)
    assert reply.rows() == [[1, 2], [3, 4]]
    # other layouts decode whole
    stats = _line({"ok": True, "shed": 0, "id": 3})
    assert loadgen.peek_id(stats) == 3
    assert loadgen.decode(stats) == ({"ok": True, "shed": 0, "id": 3}, None)


def test_planted_wrong_row_fails_on_the_raw_path():
    import workloads

    good = [[1, 2], [3, 4]]
    verifier = workloads.Verifier([{
        "name": "P", "text": "a -> b", "columns": ["a", "b"],
        "rows": 2, "digest": rows_digest(good),
    }])

    def reply(rows):
        return loadgen.Reply(0, _line({
            "id": 1, "ok": True, "columns": ["a", "b"], "rows": rows,
            "truncated": False, "stop_reason": None, "metrics": {},
        }), 0.0, 0.0, 0.0)

    assert verifier.reply("a -> b", reply(good), None) is None
    assert verifier.reply("a -> b", reply(good), None) is None  # byte-equal shortcut
    assert verifier.reply("a -> b", reply([[1, 2], [3, 5]]), None) == "P: row digest mismatch"


def test_speed_scales_by_the_samples_on_either_side():
    times = iter([REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S])
    speed = Speed(loop=lambda: next(times))
    with pytest.raises(RuntimeError):
        speed.factor()  # no sample before the work
    speed.sample()
    # the loop ran at 1x before the work and 3x after: the machine ran
    # 2x slower than the reference, so the work counts half
    assert speed.factor() == pytest.approx(0.5)
    # the previous sample (3x) is the one before the next piece
    assert speed.factor() == pytest.approx(2 / 5)
    assert "2.00x" in speed.note()


def test_benchmark_json_lists_every_metric():
    import workloads

    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    # every listed workload runs; ``serve`` runs too but is not listed
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "serve"
    ]
