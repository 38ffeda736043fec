"""The ``repro.obs`` observability subsystem: metrics, tracing, workloads.

Covers the metric primitives (counter/gauge/histogram with reservoir
quantiles), the registry's snapshot and Prometheus text rendering, the
per-request :class:`Trace` span arithmetic, the ndjson :class:`TraceSink`,
and the deterministic workload generator that feeds the latency benchmark.
"""

from __future__ import annotations

import gc
import json
import math
import re
import weakref

import numpy as np
import pytest

from repro.obs import (
    METRIC_CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Trace,
    TraceSink,
    get_registry,
    quantile,
)
from repro.serving.workload import WorkloadSpec, generate_workload, summarize_results
from repro.serving.requests import GenerationResult


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("serving_requests_submitted_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_sets_and_moves(self):
        gauge = Gauge("serving_queue_depth")
        gauge.set(4)
        gauge.inc(-1.5)
        assert gauge.value == 2.5

    def test_histogram_exact_quantiles_match_numpy(self):
        histogram = Histogram("serving_ttft_seconds")
        values = [0.001 * (i + 1) for i in range(100)]
        for value in values:
            histogram.observe(value)
        assert histogram.count == 100
        assert histogram.sum == pytest.approx(sum(values))
        for q in (0.5, 0.95, 0.99):
            assert histogram.quantile(q) == pytest.approx(
                float(np.percentile(values, q * 100)), rel=1e-9
            )

    def test_histogram_reservoir_is_deterministic_past_capacity(self):
        a = Histogram("serving_ttft_seconds", reservoir_size=64)
        b = Histogram("serving_ttft_seconds", reservoir_size=64)
        rng = np.random.default_rng(3)
        values = rng.exponential(0.01, size=500)
        for value in values:
            a.observe(float(value))
            b.observe(float(value))
        assert a.quantile(0.95) == b.quantile(0.95)  # seeded by metric name

    def test_histogram_buckets_cumulative_in_snapshot(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("serving_queue_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 1, 1, 1]  # per-bucket, +Inf overflow last
        (sample,) = registry.snapshot()["serving_queue_seconds"]["samples"]
        assert [b["count"] for b in sample["buckets"]] == [1, 2, 3, 4]
        assert sample["buckets"][-1]["le"] == "+Inf"
        assert histogram.count == 4

    def test_quantile_edge_cases(self):
        assert math.isnan(quantile([], 0.5))
        assert quantile([7.0], 0.99) == 7.0
        assert quantile([1.0, 3.0], 0.5) == 2.0


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_keyed_on_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("serving_requests_submitted_total")
        assert registry.counter("serving_requests_submitted_total") is a
        labelled = registry.counter(
            "serving_requests_submitted_total", labels={"method": "dip"}
        )
        assert labelled is not a
        with pytest.raises(ValueError, match="registered as"):
            registry.gauge("serving_requests_submitted_total")

    def test_snapshot_is_json_safe_and_typed(self):
        registry = MetricsRegistry()
        registry.counter("serving_tokens_generated_total").inc(5)
        registry.gauge("serving_queue_depth").set(2)
        registry.histogram("serving_ttft_seconds", labels={"method": "dip"}).observe(0.25)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["serving_tokens_generated_total"]["type"] == "counter"
        assert snapshot["serving_tokens_generated_total"]["samples"][0]["value"] == 5
        hist = snapshot["serving_ttft_seconds"]
        assert hist["type"] == "histogram"
        (sample,) = hist["samples"]
        assert sample["labels"] == {"method": "dip"}
        assert sample["count"] == 1 and sample["p50"] == pytest.approx(0.25)
        assert sample["buckets"][-1]["le"] == "+Inf"
        # Help text comes from the catalog.
        assert snapshot["serving_queue_depth"]["help"] == METRIC_CATALOG["serving_queue_depth"]

    def test_prometheus_rendering_parses(self):
        registry = MetricsRegistry()
        registry.counter("serving_requests_completed_total").inc(3)
        histogram = registry.histogram("serving_ttft_seconds", labels={"method": "dip"})
        for value in (0.01, 0.2, 3.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert "# HELP serving_requests_completed_total" in text
        assert "# TYPE serving_ttft_seconds histogram" in text
        sample_line = re.compile(r"^[a-z_]+(\{[^}]*\})? [0-9.+eE-]+(nan)?$")
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert sample_line.match(line), line
        # Cumulative buckets: +Inf equals the observation count.
        match = re.search(
            r'serving_ttft_seconds_bucket\{method="dip",le="\+Inf"\} (\d+)', text
        )
        assert match is not None and match.group(1) == "3"
        assert 'serving_ttft_seconds_count{method="dip"} 3' in text

    def test_collectors_run_before_snapshot_and_render(self):
        registry = MetricsRegistry()
        state = {"depth": 7}
        registry.register_collector(
            lambda: registry.gauge("serving_queue_depth").set(state["depth"])
        )
        assert registry.snapshot()["serving_queue_depth"]["samples"][0]["value"] == 7
        state["depth"] = 9
        assert "serving_queue_depth 9" in registry.render_prometheus()

    def test_bound_method_collector_does_not_keep_its_owner_alive(self):
        class Owner:
            def __init__(self):
                self.registry = MetricsRegistry()
                self.registry.register_collector(self.collect)

            def collect(self):
                self.registry.gauge("serving_queue_depth").set(3)

        owner = Owner()
        registry, alive = owner.registry, weakref.ref(owner)
        assert registry.snapshot()["serving_queue_depth"]["samples"][0]["value"] == 3
        gc.disable()
        try:
            del owner
            assert alive() is None  # no owner -> registry -> collector -> owner cycle
        finally:
            gc.enable()
        registry.snapshot()  # the dead collector is skipped

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("serving_tokens_generated_total").inc(5)
        registry.histogram("serving_ttft_seconds").observe(1.0)
        registry.reset()
        assert registry.counter("serving_tokens_generated_total").value == 0
        assert registry.histogram("serving_ttft_seconds").count == 0

    def test_global_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_catalog_entries_are_nonempty_help_strings(self):
        for name, help_text in METRIC_CATALOG.items():
            assert re.match(r"^[a-z][a-z0-9_]*$", name), name
            assert isinstance(help_text, str) and help_text, name


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTrace:
    def test_timings_arithmetic_with_pinned_clock(self):
        trace = Trace("req-1", now=100.0)
        trace.mark_admitted(now=101.0)
        trace.mark_prefilled(10, 4, now=101.5)
        for t in (102.0, 102.5, 103.0):
            trace.mark_token(now=t)
        trace.finish("length", now=103.0)
        assert trace.cached_tokens == 6
        assert trace.timings() == {
            "queue_s": 1.0, "prefill_s": 0.5, "ttft_s": 2.0,
            "decode_s": 1.0, "decode_tokens_per_s": 2.0, "total_s": 3.0,
        }

    def test_never_admitted_trace_is_all_queue_time(self):
        trace = Trace("req-2", now=10.0)
        trace.finish("timeout", now=12.5)
        timings = trace.timings()
        assert timings["queue_s"] == 2.5 and timings["total_s"] == 2.5
        assert timings["ttft_s"] == 0.0 and timings["decode_tokens_per_s"] == 0.0
        (span,) = trace.to_dict()["spans"]
        assert span["name"] == "queued" and span["end_s"] == 2.5

    def test_to_dict_spans_and_annotations(self):
        trace = Trace("req-3", now=0.0)
        trace.mark_admitted(now=0.1)
        trace.mark_prefilled(8, 8, now=0.2)
        trace.mark_token(now=0.3)
        trace.annotate("error", "boom")
        trace.finish("error", now=0.4)
        payload = trace.to_dict()
        assert [s["name"] for s in payload["spans"]] == ["queued", "prefill", "decode"]
        assert payload["annotations"] == {"error": "boom"}
        assert payload["finish_reason"] == "error"
        assert payload["token_times_s"] == [pytest.approx(0.3)]

    def test_sink_writes_parseable_ndjson(self, tmp_path):
        path = tmp_path / "traces" / "out.ndjson"
        with TraceSink(path) as sink:
            trace = Trace("req-4", now=0.0)
            trace.finish("length", now=1.0)
            sink.write(trace)
            sink.write({"request_id": "req-5"})
            assert sink.written == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["request_id"] for entry in lines] == ["req-4", "req-5"]


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------


class TestWorkload:
    def test_same_spec_expands_to_identical_trace(self):
        spec = WorkloadSpec(n_requests=20, seed=5)
        first, second = generate_workload(spec), generate_workload(spec)
        assert [(e.arrival_s, e.tenant, e.request) for e in first] == [
            (e.arrival_s, e.tenant, e.request) for e in second
        ]
        assert generate_workload(WorkloadSpec(n_requests=20, seed=6)) != first

    def test_spec_round_trips_and_validates(self):
        spec = WorkloadSpec(arrival="bursty", burst_size=4, timeout_s=1.5)
        assert WorkloadSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError, match="arrival process"):
            WorkloadSpec(arrival="flat")
        with pytest.raises(ValueError, match="rate_per_s"):
            WorkloadSpec(rate_per_s=0)
        with pytest.raises(ValueError, match="shared_prefix_len"):
            WorkloadSpec(shared_prefix_len=48, prompt_len_max=48)

    def test_tenants_share_a_prompt_head(self):
        spec = WorkloadSpec(n_requests=40, tenants=3, shared_prefix_len=5, seed=2)
        heads = {}
        for entry in generate_workload(spec):
            head = entry.request.prompt[:5]
            assert heads.setdefault(entry.tenant, head) == head
        assert len(set(heads.values())) == 3  # distinct heads per tenant

    def test_arrivals_are_monotonic_and_bursty_groups_coincide(self):
        bursty = generate_workload(
            WorkloadSpec(arrival="bursty", burst_size=4, n_requests=12, seed=1)
        )
        arrivals = [entry.arrival_s for entry in bursty]
        assert arrivals == sorted(arrivals)
        for start in range(0, 12, 4):  # whole bursts arrive at one instant
            assert len({arrivals[i] for i in range(start, start + 4)}) == 1
        assert arrivals[0] < arrivals[4] < arrivals[8]

    def test_lengths_respect_spec_bounds(self):
        spec = WorkloadSpec(n_requests=60, prompt_len_max=20, decode_len_max=10, seed=9)
        for entry in generate_workload(spec):
            assert 1 <= len(entry.request.prompt) <= 20
            assert 1 <= entry.request.max_new_tokens <= 10

    def test_summarize_results_percentiles(self):
        results = [
            GenerationResult(
                request_id=f"r{i}", prompt=(1,), tokens=(2, 3, 4),
                timings={"queue_s": 0.0, "prefill_s": 0.0, "ttft_s": 0.01 * (i + 1),
                         "decode_s": 0.2, "decode_tokens_per_s": 10.0, "total_s": 0.3},
            )
            for i in range(10)
        ]
        summary = summarize_results(results + [None])
        assert summary["n_results"] == 10
        assert summary["ttft_p50_s"] == pytest.approx(
            float(np.percentile([0.01 * (i + 1) for i in range(10)], 50))
        )
        assert summary["intertoken_p99_s"] == pytest.approx(0.1)  # 0.2s over 2 gaps
