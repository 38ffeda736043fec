"""Tests for cache-aware masking (Eq. 10, Algorithm 1) and the LFU cache model."""

import hashlib

import numpy as np
import pytest

from repro.nn.mlp import GLUMLPConfig, SwiGLUMLP
from repro.sparsity.cache_aware import CacheAwareDIP, LayerCacheState, cache_aware_scores
from repro.sparsity.dip import DynamicInputPruning


class TestCacheAwareScores:
    def test_gamma_one_preserves_ranking(self):
        magnitudes = np.array([0.1, 3.0, 1.0, 0.5])
        cached = np.array([0.0, 0.0, 1.0, 1.0])
        scores = cache_aware_scores(magnitudes, cached, gamma=1.0)
        assert np.array_equal(np.argsort(scores), np.argsort(magnitudes))

    def test_small_gamma_prefers_cached(self):
        magnitudes = np.array([1.0, 0.9])
        cached = np.array([0.0, 1.0])
        scores = cache_aware_scores(magnitudes, cached, gamma=0.2)
        assert scores[1] > scores[0]

    def test_strong_activations_survive_penalty(self):
        """Eq. 10 must not displace activations orders of magnitude larger (Fig. 10)."""
        magnitudes = np.array([100.0, 0.9])
        cached = np.array([0.0, 1.0])
        scores = cache_aware_scores(magnitudes, cached, gamma=0.2)
        assert scores[0] > scores[1]

    def test_normalised_by_inf_norm(self):
        magnitudes = np.array([2.0, 4.0])
        scores = cache_aware_scores(magnitudes, np.ones(2), gamma=0.5)
        assert scores.max() == pytest.approx(1.0)

    def test_scale_invariance(self):
        magnitudes = np.array([0.5, 1.5, 2.5])
        cached = np.array([1.0, 0.0, 1.0])
        a = cache_aware_scores(magnitudes, cached, 0.3)
        b = cache_aware_scores(magnitudes * 1000, cached, 0.3)
        assert np.allclose(a, b)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            cache_aware_scores(np.ones(3), np.zeros(3), gamma=0.0)

    def test_batched_tokens(self):
        magnitudes = np.random.default_rng(0).random((5, 8))
        cached = np.zeros(8)
        assert cache_aware_scores(magnitudes, cached, 0.5).shape == (5, 8)


class TestLayerCacheState:
    def test_insert_and_hit(self):
        cache = LayerCacheState(n_units=8, capacity=4)
        active = np.zeros(8, dtype=bool)
        active[:3] = True
        hits, misses = cache.update(active)
        assert (hits, misses) == (0, 3)
        hits, misses = cache.update(active)
        assert (hits, misses) == (3, 0)

    def test_eviction_respects_capacity(self):
        cache = LayerCacheState(n_units=10, capacity=3)
        for start in range(0, 9, 3):
            active = np.zeros(10, dtype=bool)
            active[start : start + 3] = True
            cache.update(active)
        assert cache.cached.sum() == 3

    def test_lfu_keeps_frequent_units(self):
        cache = LayerCacheState(n_units=6, capacity=2)
        frequent = np.zeros(6, dtype=bool)
        frequent[0] = True
        for _ in range(5):
            cache.update(frequent)
        other = np.zeros(6, dtype=bool)
        other[3] = True
        cache.update(other)
        assert cache.cached[0]  # unit 0 survived (higher frequency)

    def test_zero_capacity_never_caches(self):
        cache = LayerCacheState(n_units=4, capacity=0)
        active = np.ones(4, dtype=bool)
        cache.update(active)
        hits, misses = cache.update(active)
        assert hits == 0 and misses == 4

    def test_active_set_larger_than_capacity(self):
        cache = LayerCacheState(n_units=8, capacity=2)
        active = np.ones(8, dtype=bool)
        cache.update(active)
        assert cache.cached.sum() == 2

    def test_reset(self):
        cache = LayerCacheState(4, 2)
        cache.update(np.array([True, True, False, False]))
        cache.reset()
        assert cache.cached.sum() == 0
        assert cache.frequency.sum() == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LayerCacheState(4, 2).update(np.ones(5, dtype=bool))

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            LayerCacheState(0, 1)


class TestCacheAwareDIP:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CacheAwareDIP(gamma=0.0)
        with pytest.raises(ValueError):
            CacheAwareDIP(cache_fraction=1.5)

    def test_gamma_one_matches_plain_dip(self, trained_tiny_model):
        mlp = trained_tiny_model.blocks[0].mlp
        x = np.random.default_rng(1).normal(size=(6, trained_tiny_model.config.d_model))
        ca = CacheAwareDIP(target_density=0.5, gamma=1.0, cache_fraction=0.5)
        plain = DynamicInputPruning(target_density=0.5)
        masks_ca = ca.compute_masks(mlp, 0, x)
        masks_plain = plain.compute_masks(mlp, 0, x)
        assert np.array_equal(masks_ca.down_mask, masks_plain.down_mask)
        assert np.array_equal(masks_ca.input_mask, masks_plain.input_mask)

    def test_cache_increases_hit_rate(self, trained_tiny_model, eval_sequences):
        """Cache-aware selection must produce a higher hit rate than plain DIP (the paper's core claim)."""
        from repro.engine.inference import SparseInferenceEngine

        d_model = trained_tiny_model.config.d_model
        seq = eval_sequences[0]

        def run(gamma):
            method = CacheAwareDIP(target_density=0.5, gamma=gamma, cache_fraction=0.3)
            engine = SparseInferenceEngine(trained_tiny_model, method)
            engine.logits(seq)
            return method.stats.hit_rate

        assert run(0.2) > run(1.0)

    def test_masks_keep_per_token_budget(self, trained_tiny_model):
        mlp = trained_tiny_model.blocks[0].mlp
        method = CacheAwareDIP(target_density=0.5, gamma=0.2, cache_fraction=0.4)
        x = np.random.default_rng(2).normal(size=(5, trained_tiny_model.config.d_model))
        masks = method.compute_masks(mlp, 0, x)
        expected_inputs = int(round(method.input_keep_fraction * mlp.d_model))
        assert np.all(masks.input_mask.sum(axis=-1) == expected_inputs)

    def test_reset_cache(self, trained_tiny_model):
        mlp = trained_tiny_model.blocks[0].mlp
        method = CacheAwareDIP(target_density=0.5, gamma=0.2, cache_fraction=0.4)
        x = np.random.default_rng(3).normal(size=(3, trained_tiny_model.config.d_model))
        method.compute_masks(mlp, 0, x)
        assert method.stats.hits + method.stats.misses > 0
        method.reset_cache()
        assert method.stats.hits == 0 and method.stats.misses == 0

    def test_describe_includes_gamma(self):
        info = CacheAwareDIP(gamma=0.3).describe()
        assert info["gamma"] == 0.3


#: cache_fraction -> (sha256 over the packed input/down masks, hits, misses),
#: recorded with the stable-argsort LFU eviction the linear-time code replaced.
#: Capacity 10 of 32 input units sits below the 17 active ones (the rank-all
#: over-capacity branch); capacity 26 sits above it (the evict-inactive branch).
DIP_CA_PINS = {
    0.3: ("9844d3841c104ad7160e60978c51457eeb12b8292e39f47625c22ab77bf9a815", 1025, 1135),
    0.8: ("4803f2c7e70de1ec827f1efb6c8ffd0b361aab54ff0a26a2f0f38e68c3cdad1f", 1905, 255),
}


@pytest.mark.parametrize("cache_fraction", sorted(DIP_CA_PINS))
def test_compute_masks_and_hit_stats_are_pinned(cache_fraction):
    mlp = SwiGLUMLP(GLUMLPConfig(d_model=32, d_ffn=96), seed=0)
    x = np.random.default_rng(7).normal(size=(3, 12, 32))
    method = CacheAwareDIP(0.5, gamma=0.2, cache_fraction=cache_fraction)
    digest = hashlib.sha256()
    for layer_index, chunk in ((0, x[0]), (1, x[1]), (0, x[2])):
        masks = method.compute_masks(mlp, layer_index, chunk)
        digest.update(np.packbits(masks.input_mask).tobytes())
        digest.update(np.packbits(masks.down_mask).tobytes())
    assert (digest.hexdigest(), method.stats.hits, method.stats.misses) == DIP_CA_PINS[cache_fraction]
