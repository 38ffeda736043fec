"""Self-speculative decoding: parity wall, rollback units, serving opt-in.

The headline guarantee is structural — every token speculative decode emits
is a target-model argmax read off the verify forward, so greedy output is
token-identical to plain ``generate`` no matter the draft quality, ``k``, or
batch composition.  The matrix here pins that for **every** registered
method (cache-state methods are refused, tested separately) across the
single-prompt, ragged-batch, and continuous-batching paths, for
k ∈ {1, 2, 4} and draft densities {0.15, 0.35}.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.engine.inference import SparseInferenceEngine, serve_continuous_greedy
from repro.engine.speculative import (
    SpeculationStats,
    SpeculativeContinuousBatch,
    SpeculativeDecoder,
)
from repro.nn.attention import KVCache
from repro.pipeline.session import SparseSession
from repro.pipeline.spec import ExperimentSpec, SpecError, SpeculationSection
from repro.serving.requests import GenerationRequest, RequestError
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig
from repro.sparsity.registry import REGISTRY

TARGET_DENSITY = 0.75
MAX_NEW = 10

#: Every registry method speculative decode supports (cache-state refused).
SUPPORTED_METHODS = [
    name
    for name in REGISTRY.names()
    if not getattr(REGISTRY.info(name).factory, "requires_cache_state", False)
]


def _prompts(rng: np.random.Generator, lengths=(5, 12, 8)) -> list:
    return [rng.integers(0, 64, size=n) for n in lengths]


def _decoder(trained_tiny_model, calibration_sequences, method, k, draft_density):
    target = SparseInferenceEngine(trained_tiny_model, REGISTRY.create(method, target_density=TARGET_DENSITY))
    if target.method.requires_calibration:
        target.method.calibrate(trained_tiny_model, calibration_sequences)
    return target, SpeculativeDecoder.from_engine(
        target, draft_density=draft_density, k=k, calibration_sequences=calibration_sequences
    )


# ---------------------------------------------------------------------------
# The parity matrix
# ---------------------------------------------------------------------------


class TestParityMatrix:
    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("draft_density", [0.15, 0.35])
    def test_token_identical_across_all_paths(
        self, trained_tiny_model, calibration_sequences, rng, method, k, draft_density
    ):
        target, decoder = _decoder(
            trained_tiny_model, calibration_sequences, method, k, draft_density
        )
        prompts = _prompts(rng)

        # Single-prompt loop vs plain generate.
        ref_single = target.generate(prompts[0], MAX_NEW, temperature=0.0)
        out_single = decoder.generate(prompts[0], MAX_NEW)
        np.testing.assert_array_equal(out_single, ref_single)

        # Ragged generate_batch layout (right-aligned, left-padded).
        ref_batch = target.generate_batch(prompts, MAX_NEW, temperature=0.0)
        out_batch = decoder.generate_batch(prompts, MAX_NEW)
        np.testing.assert_array_equal(out_batch, ref_batch)

        # Continuous batching with fewer slots than prompts and ragged
        # budgets: admission churn + per-slot retirement trimming.
        batch = SpeculativeContinuousBatch.from_engines(
            target, decoder.draft, k=k, max_batch_size=2, max_seq_len=48
        )
        budgets = [MAX_NEW, 4, 7]
        outs = serve_continuous_greedy(batch, prompts, budgets)
        for prompt, budget, out in zip(prompts, budgets, outs):
            ref = target.generate(prompt, budget, temperature=0.0)
            np.testing.assert_array_equal(out, ref)

    def test_dense_draft_accepts_everything(
        self, trained_tiny_model, calibration_sequences, rng
    ):
        # A draft identical to the target agrees at every position: full
        # acceptance, one bonus token per round.
        target = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("dense"))
        decoder = SpeculativeDecoder(target, SparseInferenceEngine(trained_tiny_model, REGISTRY.create("dense")), k=4)
        prompt = rng.integers(0, 64, size=7)
        out = decoder.generate(prompt, 13)
        np.testing.assert_array_equal(out, target.generate(prompt, 13, temperature=0.0))
        stats = decoder.stats
        assert stats.acceptance_rate == 1.0
        assert stats.bonus_tokens == stats.rounds
        assert stats.emitted_tokens == 13


# ---------------------------------------------------------------------------
# Refusals: cache-state methods, prefix cache, model mismatch
# ---------------------------------------------------------------------------


class TestRefusals:
    def test_cache_state_target_refused(self, trained_tiny_model):
        dipca = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("dip-ca", target_density=0.75))
        draft = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("gate", target_density=0.35))
        with pytest.raises(ValueError, match="requires cache state"):
            SpeculativeDecoder(dipca, draft)
        with pytest.raises(ValueError, match="requires cache state"):
            SpeculativeDecoder(draft, dipca)
        with pytest.raises(ValueError, match="requires cache state"):
            SpeculativeContinuousBatch.from_engines(dipca, draft)

    def test_prefix_cache_refused(self, trained_tiny_model):
        from repro.nn.prefix_cache import PrefixCache

        with pytest.raises(ValueError, match="prefix cache"):
            SpeculativeContinuousBatch(
                trained_tiny_model, prefix_cache=PrefixCache(1 << 20, 16)
            )

    def test_model_mismatch_refused(self, trained_tiny_model, tiny_model):
        target = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("gate", target_density=0.75))
        other = SparseInferenceEngine(tiny_model, REGISTRY.create("gate", target_density=0.35))
        with pytest.raises(ValueError, match="shares one model"):
            SpeculativeDecoder(target, other)
        with pytest.raises(ValueError, match="shares one model"):
            SpeculativeContinuousBatch.from_engines(target, other)

    def test_k_validated(self, trained_tiny_model):
        target = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("dense"))
        with pytest.raises(ValueError, match="k"):
            SpeculativeDecoder(target, target, k=0)
        with pytest.raises(ValueError, match="k"):
            SpeculativeContinuousBatch(trained_tiny_model, k=0)

    def test_uncalibrated_draft_needs_sequences(self, trained_tiny_model):
        target = SparseInferenceEngine(trained_tiny_model, REGISTRY.create("cats", target_density=0.75))
        with pytest.raises(ValueError, match="requires calibration"):
            SpeculativeDecoder.from_engine(target, draft_density=0.35)


# ---------------------------------------------------------------------------
# KV-cache rollback primitives (the tentpole's enabling surface)
# ---------------------------------------------------------------------------


class TestCacheRollback:
    def test_truncate_bounds(self):
        cache = KVCache(2, 4, max_seq_len=8)
        cache.append(np.ones((1, 2, 5, 4)), np.ones((1, 2, 5, 4)))
        with pytest.raises(ValueError, match="cannot truncate"):
            cache.truncate(6)
        with pytest.raises(ValueError, match="outside"):
            cache.truncate(-1)
        cache.truncate(3)
        assert cache.length == 3 and cache.lengths.tolist() == [3]
        # Dead tail is overwritten by the next append.
        k2 = np.full((1, 2, 1, 4), 7.0)
        cache.append(k2, k2)
        assert cache.length == 4
        np.testing.assert_array_equal(cache.keys[0, :, 3], k2[0, :, 0])

    def test_truncate_slot_independent(self):
        cache = KVCache(1, 2, max_seq_len=8, batch_size=3)
        view = cache.slot_view([0, 1, 2])
        view.append(np.ones((3, 1, 4, 2)), np.ones((3, 1, 4, 2)))
        cache.truncate_slot(1, 2)
        assert cache.lengths.tolist() == [4, 2, 4] and cache.length == 4
        with pytest.raises(ValueError, match="cannot truncate slot"):
            cache.truncate_slot(1, 3)

    def test_multi_token_slot_append_positions(self):
        cache = KVCache(1, 2, max_seq_len=10, batch_size=2)
        cache.slot_view([0, 1]).append(np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 2, 2)))
        cache.truncate_slot(1, 1)  # ragged: slot 0 at 2, slot 1 at 1
        keys = np.arange(2 * 1 * 3 * 2, dtype=float).reshape(2, 1, 3, 2)
        cache.slot_view([0, 1]).append(keys, keys)
        assert cache.lengths.tolist() == [5, 4]
        # Each slot's 3 tokens landed at its own offset.
        np.testing.assert_array_equal(cache.keys[0, :, 2:5], keys[0])
        np.testing.assert_array_equal(cache.keys[1, :, 1:4], keys[1])

    def test_stats_rates(self):
        stats = SpeculationStats()
        assert stats.acceptance_rate == 0.0 and stats.drafts_per_token == 0.0
        stats.draft_tokens, stats.accepted_tokens, stats.emitted_tokens = 8, 6, 10
        assert stats.acceptance_rate == 0.75
        assert stats.drafts_per_token == 0.8
        stats.reset()
        assert stats.as_dict()["draft_tokens"] == 0


# ---------------------------------------------------------------------------
# Spec section: validation, round trip, hashing
# ---------------------------------------------------------------------------


class TestSpeculationSection:
    def test_validation(self):
        with pytest.raises(SpecError):
            SpeculationSection(draft_density=0.0)
        with pytest.raises(SpecError):
            SpeculationSection(k=0)
        with pytest.raises(SpecError):
            SpeculationSection(k=65)
        with pytest.raises(SpecError):
            SpeculationSection(method="nonexistent")
        with pytest.raises(SpecError):
            SpeculationSection(method="gate", kwargs={"bogus_kwarg": 1})

    def test_round_trip_and_hash(self):
        spec = ExperimentSpec(
            speculation=SpeculationSection(enabled=True, draft_density=0.2, k=3)
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()
        assert spec.content_hash() != ExperimentSpec().content_hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            ExperimentSpec.from_dict({"speculation": {"draft_k": 2}})

    def test_build_draft_falls_back_to_experiment_method(self):
        spec = ExperimentSpec.from_dict(
            {"method": {"name": "gate", "target_density": 0.8},
             "speculation": {"enabled": True, "draft_density": 0.25}}
        )
        draft = spec.speculation.build_draft(spec.method)
        assert draft.name == "gate" and draft.target_density == 0.25
        named = spec.speculation.replace(method="cats")
        assert named.build_draft(spec.method).name == "cats"


# ---------------------------------------------------------------------------
# Session + serving opt-in
# ---------------------------------------------------------------------------


class TestSessionAndServing:
    @pytest.fixture()
    def session(self, trained_tiny_model, calibration_sequences):
        return SparseSession(
            trained_tiny_model,
            "gate",
            calibration_sequences=calibration_sequences,
            speculation=SpeculationSection(enabled=True, draft_density=0.35, k=3),
        )

    def test_generate_speculative_parity(self, session, rng):
        prompt = rng.integers(0, 64, size=8)
        ref = session.generate(prompt, MAX_NEW, temperature=0.0)
        np.testing.assert_array_equal(session.generate_speculative(prompt, MAX_NEW), ref)
        prompts = _prompts(rng)
        refb = session.engine.generate_batch(prompts, MAX_NEW, temperature=0.0)
        np.testing.assert_array_equal(session.generate_speculative(prompts, MAX_NEW), refb)

    def test_decoder_memoised(self, session):
        assert session.speculative_decoder() is session.speculative_decoder()
        assert session.speculative_decoder(k=2) is not session.speculative_decoder()

    def test_scheduler_parity_and_stats(self, session, rng):
        prompts = [tuple(int(t) for t in p) for p in _prompts(rng, lengths=(5, 9, 7, 11))]
        config = SchedulerConfig(max_batch_size=2, max_seq_len=48, speculative=True)

        async def run():
            async with ContinuousBatchingScheduler(session, config) as scheduler:
                results = await asyncio.gather(
                    *[
                        scheduler.submit(
                            GenerationRequest(prompt=p, max_new_tokens=MAX_NEW, temperature=0.0)
                        )
                        for p in prompts
                    ]
                )
                return results, scheduler.stats()

        results, stats = asyncio.run(run())
        for prompt, result in zip(prompts, results):
            ref = session.generate(np.asarray(prompt), MAX_NEW, temperature=0.0)
            assert result.tokens == tuple(int(t) for t in ref[len(prompt):])
            assert result.finish_reason == "length"
        speculation = stats["speculation"]
        assert speculation["enabled"] is True
        assert speculation["k"] == 3 and speculation["draft_method"] == "gate"
        assert speculation["rounds"] > 0
        assert speculation["emitted_tokens"] >= len(prompts) * (MAX_NEW - 1)
        assert 0.0 <= speculation["acceptance_rate"] <= 1.0
        # Speculation disables the prefix cache (draft K/V differ).
        assert stats["prefix_cache"]["enabled"] is False

    def test_scheduler_rejects_sampled_requests(self, session):
        config = SchedulerConfig(max_batch_size=2, max_seq_len=48, speculative=True)

        async def run():
            async with ContinuousBatchingScheduler(session, config) as scheduler:
                with pytest.raises(RequestError, match="greedy-only"):
                    scheduler.stream(
                        GenerationRequest(prompt=(1, 2, 3), max_new_tokens=4, temperature=0.7)
                    )

        asyncio.run(run())

    def test_scheduler_refuses_cache_state_method(
        self, trained_tiny_model, calibration_sequences
    ):
        session = SparseSession(
            trained_tiny_model, "dip-ca", calibration_sequences=calibration_sequences
        )
        config = SchedulerConfig(speculative=True)

        async def run():
            with pytest.raises(ValueError, match="requires cache state"):
                async with ContinuousBatchingScheduler(session, config):
                    pass  # pragma: no cover - construction raises

        asyncio.run(run())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="speculative_k"):
            SchedulerConfig(speculative_k=0)
        with pytest.raises(ValueError, match="draft_density"):
            SchedulerConfig(speculative_draft_density=1.5)
