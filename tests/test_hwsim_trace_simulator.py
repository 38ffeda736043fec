"""Tests for trace generation and the HW simulator."""

import numpy as np
import pytest

from repro.engine.inference import SparseInferenceEngine
from repro.hwsim.device import DeviceSpec, get_device
from repro.hwsim.memory import build_layout
from repro.hwsim.simulator import HWSimulator, SimulationConfig, simulate_dense_baseline
from repro.hwsim.trace import AccessTrace, GroupTrace, SyntheticTraceConfig, synthesize_trace, trace_from_masks
from repro.nn.model_zoo import get_model_spec
from repro.sparsity.dip import DynamicInputPruning
from repro.utils.units import GB, KB, MB


@pytest.fixture(scope="module")
def small_device():
    """A device scaled to the tiny test models: DRAM holds roughly 2/3 of the
    model so that Flash traffic and caching effects are actually exercised."""
    return DeviceSpec(name="test-device", dram_capacity_bytes=10 * KB, dram_bandwidth=60 * GB, flash_read_bandwidth=1 * GB)


class TestSyntheticTrace:
    def test_trace_structure(self, tiny_config):
        layout = build_layout(tiny_config, DynamicInputPruning(0.5))
        trace = synthesize_trace(layout, SyntheticTraceConfig(n_tokens=10, seed=0))
        assert trace.n_tokens == 10
        assert len(trace.groups) == len(layout.groups)

    def test_scores_lazy_and_reproducible(self, tiny_config):
        layout = build_layout(tiny_config, DynamicInputPruning(0.5))
        trace_a = synthesize_trace(layout, SyntheticTraceConfig(n_tokens=6, seed=1))
        trace_b = synthesize_trace(layout, SyntheticTraceConfig(n_tokens=6, seed=1))
        scores_a = trace_a.groups[0].get_scores()
        scores_b = trace_b.groups[0].get_scores()
        assert scores_a.shape == (6, trace_a.groups[0].group.n_units)
        assert np.allclose(scores_a, scores_b)

    def test_different_groups_different_scores(self, tiny_config):
        layout = build_layout(tiny_config, DynamicInputPruning(0.5))
        trace = synthesize_trace(layout, SyntheticTraceConfig(n_tokens=4, seed=2))
        sparse_groups = [g for g in trace.groups if not g.is_dense]
        assert not np.allclose(sparse_groups[0].get_scores(), sparse_groups[1].get_scores())

    def test_dense_groups_have_no_scores(self, tiny_config):
        layout = build_layout(tiny_config)  # dense memory model
        trace = synthesize_trace(layout, SyntheticTraceConfig(n_tokens=4))
        assert all(g.is_dense for g in trace.groups)

    def test_temporal_correlation_present(self, tiny_config):
        """Consecutive tokens must share more active units than distant tokens."""
        layout = build_layout(tiny_config, DynamicInputPruning(0.5))
        config = SyntheticTraceConfig(n_tokens=40, seed=3)
        trace = synthesize_trace(layout, config)
        group = next(g for g in trace.groups if not g.is_dense)
        scores = group.get_scores()
        from repro.sparsity.base import topk_fraction_mask

        activity = topk_fraction_mask(scores, 0.3)
        adjacent = np.mean([np.mean(activity[t] & activity[t + 1]) for t in range(30)])
        distant = np.mean([np.mean(activity[t] & activity[(t + 20) % 40]) for t in range(30)])
        assert adjacent > distant

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(n_tokens=0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(temporal_correlation=1.0)

    def test_group_trace_validation(self, tiny_config):
        layout = build_layout(tiny_config)
        with pytest.raises(ValueError):
            GroupTrace(group=layout.groups[0], n_tokens=4, activity=np.ones((3, 5), dtype=bool))

    def test_access_trace_token_mismatch(self, tiny_config):
        layout = build_layout(tiny_config)
        g0 = GroupTrace(group=layout.groups[0], n_tokens=4)
        g1 = GroupTrace(group=layout.groups[1], n_tokens=5)
        with pytest.raises(ValueError):
            AccessTrace(n_tokens=4, groups=[g0, g1])


class TestTraceFromMasks:
    def test_round_trip_from_engine(self, trained_tiny_model, eval_sequences):
        method = DynamicInputPruning(0.5)
        engine = SparseInferenceEngine(trained_tiny_model, method, record_masks=True)
        masks = engine.collect_masks(eval_sequences[:1])
        layout = build_layout(trained_tiny_model.config, method)
        trace = trace_from_masks(layout, masks)
        assert trace.n_tokens == eval_sequences.shape[1]
        up_trace = trace.group_for(0, "up")
        assert up_trace.activity.shape == (trace.n_tokens, trained_tiny_model.config.d_model)

    def test_layer_count_checked(self, trained_tiny_model):
        layout = build_layout(trained_tiny_model.config, DynamicInputPruning(0.5))
        with pytest.raises(ValueError):
            trace_from_masks(layout, [])


class TestSimulator:
    def test_dense_baseline_latency_formula(self, tiny_config, small_device):
        """Dense streaming: latency = DRAM part + Flash part, computed analytically."""
        layout = build_layout(tiny_config, bits_per_weight=4.0, kv_cache_seq_len=32)
        result = simulate_dense_baseline(layout, small_device, n_tokens=8)
        static = layout.static_bytes()
        total = static + layout.mlp_bytes()
        dram = min(total, small_device.dram_capacity_bytes)
        flash = total - dram
        expected = dram / small_device.dram_bandwidth + flash / small_device.flash_read_bandwidth
        assert result.mean_latency_s == pytest.approx(expected, rel=0.05)
        assert result.tokens_per_second == pytest.approx(1.0 / expected, rel=0.05)

    def test_everything_fits_in_dram_no_flash(self, tiny_config):
        device = DeviceSpec(name="big", dram_capacity_bytes=1 * GB, dram_bandwidth=60 * GB, flash_read_bandwidth=1 * GB)
        layout = build_layout(tiny_config, kv_cache_seq_len=32)
        result = simulate_dense_baseline(layout, device, n_tokens=12)
        assert result.mean_flash_bytes == pytest.approx(0.0)
        # Only the cold-start token misses; everything stays resident afterwards.
        assert result.cache_hit_rate > 0.9

    def test_sparsity_increases_throughput(self, tiny_config, small_device):
        dense_layout = build_layout(tiny_config, kv_cache_seq_len=32)
        sparse_layout = build_layout(tiny_config, DynamicInputPruning(0.4), kv_cache_seq_len=32)
        simulator = HWSimulator(sparse_layout, small_device)
        trace = synthesize_trace(sparse_layout, SyntheticTraceConfig(n_tokens=16, seed=0))
        sparse = simulator.simulate(trace, SimulationConfig(cache_policy="lfu", warmup_tokens=4))
        dense = simulate_dense_baseline(dense_layout, small_device, n_tokens=16)
        assert sparse.tokens_per_second > dense.tokens_per_second

    def test_cache_policies_ordering(self, tiny_config, small_device):
        """Belady >= LFU/LRU >= NoCache in hit counts on the same trace."""
        layout = build_layout(tiny_config, DynamicInputPruning(0.5), kv_cache_seq_len=32)
        config = SyntheticTraceConfig(n_tokens=20, seed=4)
        hits = {}
        for policy in ("none", "lru", "lfu", "belady"):
            trace = synthesize_trace(layout, config)
            result = HWSimulator(layout, small_device).simulate(
                trace, SimulationConfig(cache_policy=policy, warmup_tokens=2)
            )
            hits[policy] = result.cache_hits
        assert hits["none"] == 0
        assert hits["belady"] >= hits["lfu"] >= hits["none"]
        assert hits["belady"] >= hits["lru"]

    def test_cache_aware_gamma_increases_hits(self, tiny_config, small_device):
        layout = build_layout(tiny_config, DynamicInputPruning(0.5), kv_cache_seq_len=32)
        config = SyntheticTraceConfig(n_tokens=20, seed=5)
        results = {}
        for gamma in (1.0, 0.2):
            trace = synthesize_trace(layout, config)
            results[gamma] = HWSimulator(layout, small_device).simulate(
                trace, SimulationConfig(cache_policy="lfu", gamma=gamma, warmup_tokens=2)
            )
        assert results[0.2].cache_hit_rate > results[1.0].cache_hit_rate
        assert results[0.2].tokens_per_second > results[1.0].tokens_per_second

    def test_belady_with_gamma_rejected(self, tiny_config, small_device):
        layout = build_layout(tiny_config, DynamicInputPruning(0.5), kv_cache_seq_len=32)
        trace = synthesize_trace(layout, SyntheticTraceConfig(n_tokens=4))
        with pytest.raises(ValueError):
            HWSimulator(layout, small_device).simulate(
                trace, SimulationConfig(cache_policy="belady", gamma=0.5)
            )

    def test_invalid_simulation_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(warmup_tokens=-1)

    def test_result_summary_keys(self, tiny_config, small_device):
        layout = build_layout(tiny_config, kv_cache_seq_len=32)
        result = simulate_dense_baseline(layout, small_device, n_tokens=4)
        summary = result.summary()
        for key in ("tokens_per_second", "mean_latency_s", "cache_hit_rate"):
            assert key in summary

    def test_faster_flash_faster_tokens(self, tiny_config, small_device):
        layout = build_layout(tiny_config, kv_cache_seq_len=32)
        slow = simulate_dense_baseline(layout, small_device, n_tokens=6)
        fast = simulate_dense_baseline(layout, small_device.with_flash_bandwidth(4 * GB), n_tokens=6)
        assert fast.tokens_per_second > slow.tokens_per_second

    def test_more_dram_faster_tokens(self, tiny_config, small_device):
        layout = build_layout(tiny_config, kv_cache_seq_len=32)
        small = simulate_dense_baseline(layout, small_device, n_tokens=6)
        large = simulate_dense_baseline(layout, small_device.with_dram(16 * MB), n_tokens=6)
        assert large.tokens_per_second >= small.tokens_per_second


#: ``(summary(), cache_hits, cache_misses)`` per (policy, gamma), recorded with
#: the stable-argsort eviction and the unfused Eq. 10 re-weighting that the
#: linear-time code replaced.  Any drift in simulated statistics breaks these.
SIMULATOR_PINS = {
    ("none", 1.0): (
        {
            "tokens_per_second": 7.571481136602618,
            "mean_latency_s": 0.13207455476125082,
            "cache_hit_rate": 0.0,
            "mean_dram_bytes": 250688000.0,
            "mean_flash_bytes": 137635840.0,
        },
        0,
        215072,
    ),
    ("lru", 1.0): (
        {
            "tokens_per_second": 16.728401594790757,
            "mean_latency_s": 0.05977857444021437,
            "cache_hit_rate": 0.5035615979764916,
            "mean_dram_bytes": 329630933.3333333,
            "mean_flash_bytes": 58692906.666666664,
        },
        108302,
        106770,
    ),
    ("lfu", 1.0): (
        {
            "tokens_per_second": 16.949202381431448,
            "mean_latency_s": 0.058999826510747276,
            "cache_hit_rate": 0.5083181446213361,
            "mean_dram_bytes": 330481280.0,
            "mean_flash_bytes": 57842560.0,
        },
        109325,
        105747,
    ),
    ("belady", 1.0): (
        {
            "tokens_per_second": 18.20989134119617,
            "mean_latency_s": 0.05491520961125692,
            "cache_hit_rate": 0.5412187546496057,
            "mean_dram_bytes": 334941440.0,
            "mean_flash_bytes": 53382400.0,
        },
        116401,
        98671,
    ),
    ("lfu", 0.2): (
        {
            "tokens_per_second": 30.59293091206153,
            "mean_latency_s": 0.03268728984726799,
            "cache_hit_rate": 0.6968968531468531,
            "mean_dram_bytes": 359213013.3333333,
            "mean_flash_bytes": 29110826.666666668,
        },
        149883,
        65189,
    ),
}


@pytest.mark.parametrize("policy,gamma", sorted(SIMULATOR_PINS))
def test_paper_geometry_simulation_is_pinned(policy, gamma):
    """Two Phi-3-Medium layers at DIP 0.5, half the MLP bytes cacheable, 8 tokens.

    Up/gate capacity (2560 units) sits below the active count (2688), so the
    evict-active branch runs; down capacity (8960) sits above it (8066).
    """
    model_config = get_model_spec("phi3-medium").paper_config.replace(n_layers=2)
    layout = build_layout(model_config, DynamicInputPruning(0.5), kv_cache_seq_len=2048)
    device = get_device("apple-a18").with_dram(layout.static_bytes() + 0.5 * layout.mlp_bytes())
    trace = synthesize_trace(layout, SyntheticTraceConfig(n_tokens=8, seed=5))
    config = SimulationConfig(cache_policy=policy, gamma=gamma, warmup_tokens=2)
    result = HWSimulator(layout, device).simulate(trace, config)
    assert (result.summary(), result.cache_hits, result.cache_misses) == SIMULATOR_PINS[(policy, gamma)]
