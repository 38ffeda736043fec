"""Parity and kernel tests for the pluggable compute backends.

The acceptance property is token-identity: greedy ``generate`` under every
non-quantized backend must reproduce the numpy reference *exactly*, for every
registered sparsity method, on single prompts, rectangular batches, ragged
batches and the continuous-batching decode core.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    active_backend,
    available_backends,
    default_backend,
    get_backend,
    resolve_backend,
    use_backend,
)
from repro.autograd.optim import SGD, Adam
from repro.backend.gather import STREAM_CHUNK_BYTES, GatherGEMMBackend
from repro.engine.inference import ContinuousBatch, SparseInferenceEngine, serve_continuous_greedy
from repro.nn.mlp import GLUMLPConfig, SwiGLUMLP
from repro.nn.transformer import CausalLM, TransformerConfig
from repro.pipeline.spec import ExperimentSpec
from repro.sparsity.registry import REGISTRY

#: Backends expected to be token-identical to the numpy reference.
EXACT_BACKENDS = ("gather",)

METHODS = tuple(sorted(REGISTRY.names()))


def _engine(model, method_name, calibration_sequences, backend):
    """Engine with its own method instance, calibrated under the reference.

    Calibration always runs under the numpy backend so every engine starts
    from identical method state and the comparison isolates the decode path.
    """
    method = REGISTRY.create(method_name, target_density=0.5)
    if method.requires_calibration:
        with use_backend("numpy"):
            method.calibrate(model, calibration_sequences)
    return SparseInferenceEngine(model, method, backend=backend)


# ------------------------------------------------------------------ registry
def test_backend_registry():
    assert set(available_backends()) >= {"numpy", "gather"}
    assert get_backend("gather") is get_backend("gather")  # singleton per name
    with pytest.raises(KeyError, match="available"):
        get_backend("missing")


def test_selection_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend().name == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "gather")
    assert default_backend().name == "gather"
    assert active_backend().name == "gather"
    with use_backend("numpy"):  # explicit scope beats the env var
        assert active_backend().name == "numpy"
        with use_backend(None):  # None inherits the enclosing scope
            assert active_backend().name == "numpy"
    assert active_backend().name == "gather"
    assert resolve_backend(None) is active_backend()
    assert resolve_backend("numpy").name == "numpy"  # a name beats the ambient backend


def test_spec_backend_field_is_validated_and_hashed():
    spec = ExperimentSpec(name="t", backend="gather")
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    assert spec.content_hash() != ExperimentSpec(name="t").content_hash()
    with pytest.raises(ValueError, match="unknown backend"):
        ExperimentSpec(name="t", backend="nope")


def test_engine_runs_under_its_own_backend(monkeypatch, trained_tiny_model, calibration_sequences):
    """An injected backend instance is the one the decode path actually uses."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    probe = GatherGEMMBackend()
    engine = _engine(trained_tiny_model, "dip", calibration_sequences, probe)
    engine.generate(calibration_sequences[0][:8], 4, temperature=0.0)
    assert probe.stats["gather_calls"] + probe.stats["dense_calls"] > 0


# -------------------------------------------------------------------- parity
@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("method_name", METHODS)
def test_greedy_generate_token_identity(
    trained_tiny_model, calibration_sequences, method_name, backend
):
    prompt = calibration_sequences[0][:12]
    ref = _engine(trained_tiny_model, method_name, calibration_sequences, "numpy")
    expected = ref.generate(prompt, 12, temperature=0.0)
    out = _engine(trained_tiny_model, method_name, calibration_sequences, backend).generate(
        prompt, 12, temperature=0.0
    )
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("method_name", METHODS)
def test_ragged_batch_token_identity(
    trained_tiny_model, calibration_sequences, method_name, backend
):
    prompts = [
        calibration_sequences[0][:6],
        calibration_sequences[1][:11],
        calibration_sequences[2][:9],
    ]
    ref = _engine(trained_tiny_model, method_name, calibration_sequences, "numpy")
    expected = ref.generate_batch(prompts, 8, temperature=0.0)
    out = _engine(trained_tiny_model, method_name, calibration_sequences, backend).generate_batch(
        prompts, 8, temperature=0.0
    )
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
def test_continuous_batch_token_identity(trained_tiny_model, calibration_sequences, backend):
    """The slot-wise decode core inherits the engine backend via from_engine."""
    prompts = [
        calibration_sequences[0][:6],
        calibration_sequences[1][:11],
        calibration_sequences[2][:9],
        calibration_sequences[3][:7],
    ]
    ref = _engine(trained_tiny_model, "dip", calibration_sequences, "numpy")
    expected = [ref.generate(p, 6, temperature=0.0) for p in prompts]
    engine = _engine(trained_tiny_model, "dip", calibration_sequences, backend)
    batch = ContinuousBatch.from_engine(engine, max_batch_size=2)
    results = serve_continuous_greedy(batch, prompts, [6] * len(prompts))
    for out, exp in zip(results, expected):
        np.testing.assert_array_equal(out, exp)


# ----------------------------------------------------------- gather mechanics
def _mlp_case(rng, d_model=16, d_ffn=40, n_tokens=4):
    w_up = rng.normal(size=(d_ffn, d_model))
    w_gate = rng.normal(size=(d_ffn, d_model))
    w_down = rng.normal(size=(d_model, d_ffn))
    x = rng.normal(size=(n_tokens, d_model))
    return w_up, w_gate, w_down, x


def test_crossover_density_switches_to_masked_dense(rng):
    w_up, w_gate, w_down, x = _mlp_case(rng)
    backend = GatherGEMMBackend(crossover_density=0.5)
    dense_mask = np.zeros((x.shape[0], w_up.shape[0]), dtype=bool)
    dense_mask[:, : int(0.75 * w_up.shape[0])] = True  # union density 0.75 > 0.5
    backend.masked_mlp(w_up, w_gate, w_down, "silu", x, dense_mask)
    # A single token on weights wide enough to stream still runs dense above it.
    wide_down = _wide_mlp_case(rng)[2]
    glu = rng.normal(size=(1, wide_down.shape[1]))
    above = np.arange(wide_down.shape[1])[None] % 4 != 0  # density 0.75 > 0.5
    backend.masked_down(wide_down, glu, above)
    assert backend.stats == {"gather_calls": 0, "dense_calls": 2}


def test_use_backend_none_pins_the_ambient_backend(monkeypatch):
    """A ``None`` scope resolves the environment once, at entry."""
    monkeypatch.setenv("REPRO_BACKEND", "gather")
    with use_backend(None) as pinned:
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert pinned.name == "gather" and active_backend() is pinned
    assert active_backend().name == "numpy"


@pytest.mark.parametrize("optimizer_cls", [SGD, Adam])
def test_optimizer_step_invalidates_warm_plans(rng, optimizer_cls):
    """An optimizer step is visible to the next streaming-gather call."""
    mlp = SwiGLUMLP(GLUMLPConfig(d_model=128, d_ffn=1024), seed=0)  # 1 MB weights
    x = rng.normal(size=(1, 128))
    input_mask = np.arange(128)[None] % 4 == 0
    down_mask = np.arange(1024)[None] % 4 == 0
    backend = GatherGEMMBackend()

    def run(b):
        glu = b.glu_act(mlp.w_up, mlp.w_gate, "silu", x, input_mask=input_mask)
        return b.masked_down(mlp.w_down, glu, down_mask)

    before = run(backend)
    params = mlp.parameters()
    for param in params:
        param.grad = rng.normal(size=param.shape)
    optimizer_cls(params, lr=0.1).step()
    assert mlp.w_up.flags.f_contiguous  # the update keeps the layout
    after = run(backend)
    assert backend.stats == {"gather_calls": 4, "dense_calls": 0}
    assert not np.allclose(after, before)
    np.testing.assert_allclose(after, run(get_backend("numpy")), atol=1e-12)


# ------------------------------------------------- batch-1 streaming gather
def _wide_mlp_case(rng, d_model=256, d_ffn=4096, density=0.3, order="F"):
    """One token against weights wide enough that every kept-row stream spans
    at least three chunks (the tiny test model fits in one)."""
    w_up = np.asarray(rng.normal(size=(d_ffn, d_model)) / np.sqrt(d_model), order=order)
    w_gate = np.asarray(rng.normal(size=(d_ffn, d_model)) / np.sqrt(d_model), order=order)
    w_down = np.asarray(rng.normal(size=(d_model, d_ffn)) / np.sqrt(d_ffn), order=order)
    x = rng.normal(size=(1, d_model))
    input_mask = rng.random((1, d_model)) < density
    down_mask = rng.random((1, d_ffn)) < density
    for weight, mask in ((w_up, input_mask), (w_down, down_mask)):
        rows_per_chunk = STREAM_CHUNK_BYTES // (weight.shape[0] * weight.itemsize)
        assert mask.sum() >= 3 * rows_per_chunk
    return w_up, w_gate, w_down, x, input_mask, down_mask


def test_single_token_stream_matches_reference(rng):
    w_up, w_gate, w_down, x, input_mask, down_mask = _wide_mlp_case(rng)
    ref = get_backend("numpy")
    backend = GatherGEMMBackend()
    glu = backend.glu_act(w_up, w_gate, "silu", x, input_mask=input_mask)
    np.testing.assert_allclose(glu, ref.glu_act(w_up, w_gate, "silu", x, input_mask=input_mask), atol=1e-12)
    out = backend.masked_down(w_down, glu.copy(), down_mask)
    np.testing.assert_allclose(out, ref.masked_down(w_down, glu.copy(), down_mask), atol=1e-12)
    assert backend.stats["gather_calls"] == 2 and backend.stats["dense_calls"] == 0
    assert glu.shape == (1, w_up.shape[0]) and out.shape == (1, w_down.shape[0])


def test_single_token_stream_falls_back_for_row_major_weights(rng):
    w_up, w_gate, w_down, x, input_mask, down_mask = _wide_mlp_case(rng, order="C")
    ref = get_backend("numpy")
    backend = GatherGEMMBackend()
    glu = backend.glu_act(w_up, w_gate, "silu", x, input_mask=input_mask)
    np.testing.assert_array_equal(glu, ref.glu_act(w_up, w_gate, "silu", x, input_mask=input_mask))
    out = backend.masked_down(w_down, glu.copy(), down_mask)
    np.testing.assert_array_equal(out, ref.masked_down(w_down, glu.copy(), down_mask))
    assert backend.stats["gather_calls"] == 0 and backend.stats["dense_calls"] == 2


@pytest.mark.parametrize("d_ffn, regime", [(512, "dense_calls"), (520, "gather_calls")])
def test_single_token_stream_needs_more_than_one_chunk(rng, d_ffn, regime):
    """A column-major weight of at most one chunk (128 x 512 float64 is
    exactly 512 KB) already sits in L2 and runs masked-dense; one past it
    streams."""
    w_up = np.asfortranarray(rng.normal(size=(d_ffn, 128)))
    w_gate = np.asfortranarray(rng.normal(size=(d_ffn, 128)))
    w_down = np.asfortranarray(rng.normal(size=(128, d_ffn)))
    assert (w_up.nbytes <= STREAM_CHUNK_BYTES) == (regime == "dense_calls")
    x = rng.normal(size=(1, 128))
    input_mask = np.arange(128)[None] % 4 == 0
    down_mask = np.arange(d_ffn)[None] % 4 == 0
    ref = get_backend("numpy")
    backend = GatherGEMMBackend()
    glu = backend.glu_act(w_up, w_gate, "silu", x, input_mask=input_mask)
    np.testing.assert_allclose(glu, ref.glu_act(w_up, w_gate, "silu", x, input_mask=input_mask), atol=1e-12)
    out = backend.masked_down(w_down, glu.copy(), down_mask)
    np.testing.assert_allclose(out, ref.masked_down(w_down, glu.copy(), down_mask), atol=1e-12)
    assert backend.stats[regime] == 2


@pytest.mark.parametrize("method_name", ["dip", "dip-ca"])
def test_wide_batch1_decode_token_identity(method_name):
    """Batch-1 greedy decode on the 512/2048 geometry streams its MLP reads
    and still reproduces the numpy reference token for token."""
    config = TransformerConfig(
        vocab_size=256,
        d_model=512,
        n_layers=2,
        n_heads=8,
        n_kv_heads=2,
        d_ffn=2048,
        max_seq_len=64,
        activation="silu",
        tie_embeddings=True,
    )
    model = CausalLM(config, seed=0)
    model.eval()
    prompt = np.arange(8) + 3
    outs = []
    probe = GatherGEMMBackend()
    for backend in ("numpy", probe):
        method = REGISTRY.create(method_name, target_density=0.35)
        engine = SparseInferenceEngine(model, method, backend=backend)
        outs.append(engine.generate(prompt, 16, temperature=0.0))
    np.testing.assert_array_equal(outs[1], outs[0])
    assert probe.stats["gather_calls"] > probe.stats["dense_calls"]
