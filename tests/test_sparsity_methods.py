"""Tests for GLU / Gate / Up / CATS / DejaVu pruning methods and the registry."""

import numpy as np
import pytest

from repro.sparsity.base import masks_mlp_density
from repro.sparsity.cats import CATS
from repro.sparsity.gate_pruning import GatePruning, UpPruning
from repro.sparsity.glu_pruning import GLUPruning
from repro.sparsity.predictive import PredictiveGLUPruning
from repro.sparsity.registry import REGISTRY, available_methods


@pytest.fixture()
def mlp(trained_tiny_model):
    return trained_tiny_model.blocks[0].mlp


@pytest.fixture()
def x(trained_tiny_model):
    return np.random.default_rng(0).normal(size=(12, trained_tiny_model.config.d_model))


class TestGLUPruning:
    def test_keep_fraction_from_density(self):
        assert GLUPruning(0.8).keep_fraction == pytest.approx(0.4)
        assert GLUPruning(0.5).keep_fraction == 0.0  # cannot reach 50% (paper: excluded)
        assert GLUPruning(0.5, oracle=True).keep_fraction == 0.5

    def test_explicit_keep_fraction(self):
        method = GLUPruning(0.5, keep_fraction=0.3)
        assert method.keep_fraction == 0.3

    def test_invalid_keep_fraction(self):
        with pytest.raises(ValueError):
            GLUPruning(0.5, keep_fraction=1.5)

    def test_non_oracle_leaves_up_gate_dense(self, mlp, x):
        masks = GLUPruning(0.8).compute_masks(mlp, 0, x)
        assert masks.up_axis == "dense" and masks.gate_axis == "dense"
        assert masks.input_mask is None

    def test_oracle_prunes_all_three(self, mlp, x):
        masks = GLUPruning(0.5, oracle=True).compute_masks(mlp, 0, x)
        assert masks.up_axis == "neuron"
        assert np.array_equal(masks.up_mask, masks.down_mask)

    def test_oracle_functional_equals_plain_glu(self, mlp, x):
        """Oracle and plain GLU pruning compute the same output at equal keep fraction."""
        plain = GLUPruning(0.5, keep_fraction=0.4)
        oracle = GLUPruning(0.4, oracle=True)
        out_plain = plain.sparse_forward(mlp, 0, x)
        out_oracle = oracle.sparse_forward(mlp, 0, x)
        assert np.allclose(out_plain, out_oracle)

    def test_density_matches_expected(self, mlp, x, trained_tiny_model):
        method = GLUPruning(0.8)
        masks = method.compute_masks(mlp, 0, x)
        cfg = trained_tiny_model.config
        measured = masks_mlp_density(masks, cfg.d_model, cfg.d_ffn)
        assert measured == pytest.approx(method.expected_density(cfg.d_model, cfg.d_ffn), abs=0.02)

    def test_memory_plan(self):
        assert GLUPruning(0.8).memory_plan()["down"][0] == "neuron"
        assert GLUPruning(0.5, oracle=True).memory_plan()["up"][0] == "neuron"

    def test_keeps_largest_glu_activations(self, mlp):
        x1 = np.random.default_rng(3).normal(size=(1, mlp.d_model))
        method = GLUPruning(0.5, oracle=True)
        masks = method.compute_masks(mlp, 0, x1)
        glu = np.abs(mlp.glu_activations_array(x1))[0]
        kept = glu[masks.down_mask[0]]
        dropped = glu[~masks.down_mask[0]]
        assert kept.min() >= dropped.max() - 1e-12


class TestGateAndUpPruning:
    def test_keep_fraction(self):
        assert GatePruning(0.5).keep_fraction == pytest.approx(0.25)
        assert UpPruning(1.0).keep_fraction == pytest.approx(1.0)

    def test_gate_prunes_up_and_down(self, mlp, x):
        masks = GatePruning(0.5).compute_masks(mlp, 0, x)
        assert masks.gate_axis == "dense"
        assert masks.up_axis == "neuron"
        assert np.array_equal(masks.up_mask, masks.down_mask)

    def test_up_prunes_gate_and_down(self, mlp, x):
        masks = UpPruning(0.5).compute_masks(mlp, 0, x)
        assert masks.up_axis == "dense"
        assert masks.gate_axis == "neuron"

    def test_gate_mask_follows_gate_activations(self, mlp):
        x1 = np.random.default_rng(4).normal(size=(1, mlp.d_model))
        masks = GatePruning(0.5).compute_masks(mlp, 0, x1)
        gate = np.abs(mlp.gate_activations_array(x1))[0]
        kept = gate[masks.down_mask[0]]
        dropped = gate[~masks.down_mask[0]]
        assert kept.min() >= dropped.max() - 1e-12

    def test_density(self, mlp, x, trained_tiny_model):
        cfg = trained_tiny_model.config
        for method in (GatePruning(0.5), UpPruning(0.6)):
            masks = method.compute_masks(mlp, 0, x)
            assert masks_mlp_density(masks, cfg.d_model, cfg.d_ffn) == pytest.approx(
                method.expected_density(cfg.d_model, cfg.d_ffn), abs=0.03
            )

    def test_memory_plan(self):
        assert GatePruning(0.5).memory_plan()["gate"] == ("dense", None)
        assert UpPruning(0.5).memory_plan()["up"] == ("dense", None)


class TestCATS:
    def test_requires_calibration(self, mlp, x):
        with pytest.raises(RuntimeError):
            CATS(0.5).compute_masks(mlp, 0, x)

    def test_calibrated_density_near_target(self, trained_tiny_model, calibration_sequences):
        method = CATS(0.5)
        method.calibrate(trained_tiny_model, calibration_sequences)
        assert len(method.thresholds) == len(trained_tiny_model.blocks)
        from repro.sparsity.thresholding import collect_mlp_inputs

        inputs = collect_mlp_inputs(trained_tiny_model, calibration_sequences)
        cfg = trained_tiny_model.config
        densities = []
        for layer_index, (block, layer_x) in enumerate(zip(trained_tiny_model.blocks, inputs)):
            masks = method.compute_masks(block.mlp, layer_index, layer_x)
            densities.append(masks_mlp_density(masks, cfg.d_model, cfg.d_ffn))
        assert np.mean(densities) == pytest.approx(0.5, abs=0.05)

    def test_gate_stays_dense(self, trained_tiny_model, calibration_sequences, mlp, x):
        method = CATS(0.5)
        method.calibrate(trained_tiny_model, calibration_sequences)
        masks = method.compute_masks(mlp, 0, x)
        assert masks.gate_axis == "dense"
        assert masks.up_axis == "neuron"


class TestPredictiveGLUPruning:
    def test_requires_predictors_or_calibration(self, mlp, x):
        method = PredictiveGLUPruning(0.5)
        with pytest.raises(RuntimeError):
            method.compute_masks(mlp, 0, x)

    def test_with_oracle_predictor_matches_oracle_glu(self, mlp, x, trained_tiny_model):
        """A perfect predictor reduces DejaVu to oracle GLU pruning."""

        class OraclePredictor:
            def __init__(self, mlp):
                self.mlp = mlp

            def forward_array(self, x):
                return np.abs(self.mlp.glu_activations_array(x))

        predictors = [OraclePredictor(block.mlp) for block in trained_tiny_model.blocks]
        method = PredictiveGLUPruning(0.5, predictors=predictors)
        oracle = GLUPruning(0.5, oracle=True)
        assert np.allclose(method.sparse_forward(mlp, 0, x), oracle.sparse_forward(mlp, 0, x))

    def test_wrong_predictor_shape_raises(self, mlp, x):
        class Bad:
            def forward_array(self, x):
                return np.zeros((x.shape[0], 3))

        method = PredictiveGLUPruning(0.5, predictors=[Bad()])
        with pytest.raises(ValueError):
            method.compute_masks(mlp, 0, x)

    def test_missing_layer_predictor(self, mlp, x):
        class Any:
            def forward_array(self, x):
                return np.zeros((x.shape[0], mlp.d_ffn))

        method = PredictiveGLUPruning(0.5, predictors=[Any()])
        with pytest.raises(IndexError):
            method.compute_masks(mlp, 3, x)

    def test_calibration_trains_predictors(self, trained_tiny_model, calibration_sequences, mlp, x):
        method = PredictiveGLUPruning(0.5, predictor_hidden=8, predictor_epochs=1, seed=0)
        method.calibrate(trained_tiny_model, calibration_sequences[:2])
        assert method.predictors is not None
        masks = method.compute_masks(mlp, 0, x)
        assert masks.up_axis == "neuron"
        assert np.all(masks.down_mask.sum(axis=-1) == int(0.5 * mlp.d_ffn))

    def test_predictor_overhead_positive(self):
        method = PredictiveGLUPruning(0.5, predictor_hidden=100)
        assert method.predictor_parameter_overhead(64, 256) > 0


class TestRegistry:
    def test_all_methods_listed(self):
        names = available_methods()
        for expected in ("dense", "glu", "glu-oracle", "gate", "up", "dejavu", "cats", "dip", "dip-ca"):
            assert expected in names

    def test_build_unknown(self):
        with pytest.raises(KeyError):
            REGISTRY.create("magic")

    def test_build_passes_density(self):
        method = REGISTRY.create("dip", target_density=0.4)
        assert method.target_density == 0.4

    @pytest.mark.parametrize("name", ["glu", "glu-oracle", "gate", "up", "cats", "dip", "dip-ca"])
    def test_functional_output_differs_from_dense_but_close(self, name, trained_tiny_model, mlp, x, calibration_sequences):
        """Every sparsification approximates (not reproduces, not destroys) the dense output."""
        method = REGISTRY.create(name, target_density=0.75)
        if method.requires_calibration:
            method.calibrate(trained_tiny_model, calibration_sequences[:2])
        out = method.sparse_forward(mlp, 0, x)
        dense = mlp.forward_array(x)
        rel_err = np.linalg.norm(out - dense) / np.linalg.norm(dense)
        assert 0.0 < rel_err < 1.0
