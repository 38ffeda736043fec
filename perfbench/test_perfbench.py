"""Tests of the benchmark's own arithmetic, parsing, inputs and wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench``; nothing here starts a
server or runs a workload.
"""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

from perfbench import httpstream, tracing, traffic
from perfbench.measure import covered, percentile, self_times, summarize, tail_percentile


# ------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    "n, expected",
    [(1000, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0),
     (39, 50.0), (20, 50.0), (5, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # unsorted input
    assert percentile(values, 50.0) == 50
    assert percentile(values, 95.0) == 95
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 95.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_summary_reports_the_supported_tail():
    summary = summarize([float(v) for v in range(1, 101)])
    assert summary == {"n": 100, "p50": 50.0, "tail_pct": 90.0, "tail": 90.0}


# --------------------------------------------------------------- self time
def test_coverage_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_child_coverage():
    spans = [
        ["parent", 0.0, 10.0, -1, None],
        ["child", 1.0, 3.0, 0, None],
        ["grandchild", 1.5, 2.5, 1, None],
        ["child", 5.0, 9.0, 0, None],
        ["other", 20.0, 21.0, -1, None],
    ]
    assert self_times(spans) == [4.0, 1.0, 1.0, 4.0, 1.0]


# ------------------------------------------------------- streamed responses
CANNED = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
    b"Transfer-Encoding: chunked\r\n\r\n"
    + b"".join(
        f"{len(line):x}\r\n".encode() + line + b"\r\n"
        for line in [
            b'{"index": 0, "token": 7}\n',
            b'{"index": 1, "token": 9}\n{"index": 2, ',  # a line split across chunks
            b'"token": 4}\n',
            json.dumps({"done": True, "request_id": "r1", "tokens": [7, 9, 4],
                        "finish_reason": "length"}).encode() + b"\n",
        ]
    )
    + b"0\r\n\r\n"
)


def _parse(data: bytes, times):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await httpstream.read_response(reader, lambda: next(times))

    return asyncio.run(go())


def test_chunked_stream_ttft_and_inter_token_gaps():
    status, events = _parse(CANNED, iter([10.5, 10.7, 11.0, 11.2]))
    assert status == 200
    assert [t for t, _ in events] == [10.5, 10.7, 11.0, 11.2]  # a line lands when it completes
    timing = httpstream.stream_timings(10.0, events)
    assert timing["tokens"] == [7, 9, 4]
    assert timing["ttft"] == pytest.approx(0.5)
    assert timing["itl"] == pytest.approx([0.2, 0.3])
    assert timing["final"]["finish_reason"] == "length"


def test_error_response_with_content_length():
    body = b'{"error": "bad"}\n'
    data = (b"HTTP/1.1 400 Bad Request\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)
    status, events = _parse(data, itertools.count())
    assert status == 400 and events[0][1] == {"error": "bad"}
    assert httpstream.stream_timings(0.0, events)["ttft"] is None


# ----------------------------------------------------------------- inputs
def _take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("make", [traffic.decode_requests, traffic.burst_requests])
def test_streams_depend_only_on_the_seed(make):
    assert _take(make(3), 50) == _take(make(3), 50)
    assert _take(make(3), 50) != _take(make(4), 50)


def test_workload_shapes():
    decode = _take(traffic.decode_requests(0), 50)
    assert all(len(r.prompt) == traffic.DECODE_PROMPT < 16 for r in decode)
    burst = _take(traffic.burst_requests(0), 64)
    assert len({r.prompt[: traffic.BURST_HEAD] for r in burst}) == traffic.BURST_TENANTS
    assert [r.due_s for r in burst[:: traffic.BURST_SIZE]] == pytest.approx(
        [k * traffic.BURST_INTERVAL_S for k in range(4)])
    assert all(len(r.prompt) + r.max_new_tokens <= 128 for r in burst)


# ---------------------------------------------------------------- wrappers
def test_recorder_nests_spans_and_restores_patches():
    import repro.sparsity.base as base
    import repro.sparsity.dip as dip

    clock = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(clock)))
    original = base.topk_fraction_mask
    outer = rec.wrap("outer", "outer", lambda: base.topk_fraction_mask(__import__("numpy").ones((1, 4)), 0.5))
    assert rec.patch_function("topk_fraction_mask", "sparsity.topk", original) >= 2
    assert dip.topk_fraction_mask is not original and base.topk_fraction_mask is not original
    outer()
    assert [row[0] for row in rec.spans] == ["outer", "sparsity.topk"]
    assert rec.spans[1][3] == 0  # parent is the enclosing span
    assert rec.fired == {"outer": 1, "topk_fraction_mask": 1}
    rec.uninstall()
    assert dip.topk_fraction_mask is original and base.topk_fraction_mask is original


def test_check_fired_names_the_silent_layer():
    fired = {site: 1 for name in tracing.REQUIRED["hwsim"] for site in tracing.SITES[name]}
    tracing.check_fired(fired, "hwsim")
    fired["GroupCache.process_token"] = 0
    with pytest.raises(RuntimeError, match="hwsim.cache"):
        tracing.check_fired(fired, "hwsim")


def test_layer_metrics_from_a_log():
    log = {
        "spans": [
            ["scheduler.request", 0.0, 10.0, -1, "a"],
            ["scheduler.ttft", 0.0, 1.0, -1, "a"],
            ["scheduler.queue", 0.0, 0.5, -1, "a"],
            ["engine.admit", 0.5, 1.0, -1, None],
            ["engine.step", 1.0, 3.0, -1, None],
            ["attention.forward", 1.0, 2.0, 4, None],
            ["kv.append", 1.2, 1.4, 5, None],
        ],
        "counts": {"engine.step_slots": 4, "kv.append_bytes": 64},
        "extras": {"backend_cache": {"plan_hits": 3, "misses": 1, "promotions": 0,
                                     "dense_calls": 1, "gather_calls": 3}},
    }
    out = tracing.layer_metrics(log, overhead_ratio=1.02, client_ttft={"a": 1.25})
    assert set(out) == {row[0] for row in tracing.LAYER_METRICS}
    assert out["server.overhead_p50_ms"] == pytest.approx(250.0)
    assert out["scheduler.queue_wait_p50_ms"] == pytest.approx(500.0)
    assert out["scheduler.busy_frac"] == pytest.approx(0.25)
    assert out["scheduler.batch_width_mean"] == 4
    assert out["engine.step_ms_per_token"] == pytest.approx(500.0)
    assert out["attention.forward_ms"] == pytest.approx(800.0)  # self time
    assert out["kv.append_bytes"] == 64
    assert out["backend.gather_plan_hit_rate"] == pytest.approx(0.75)
    assert out["backend.dense_fallback_frac"] == pytest.approx(0.25)
    assert out["hwsim.simulate_s"] == 0.0 and out["trace.overhead_ratio"] == 1.02
