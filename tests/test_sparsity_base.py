"""Tests for sparsity base utilities: top-k masks, MLPMasks, density accounting."""

import numpy as np
import pytest

from repro.sparsity.base import (
    DenseBaseline,
    MLPMasks,
    masks_mlp_density,
    threshold_mask,
    topk_fraction_mask,
    topk_mask,
)


class TestTopKMask:
    def test_keeps_largest(self):
        values = np.array([[1.0, 5.0, 3.0, 2.0]])
        mask = topk_mask(values, 2)
        assert list(mask[0]) == [False, True, True, False]

    def test_k_zero_and_full(self):
        values = np.random.default_rng(0).normal(size=(3, 6))
        assert not topk_mask(values, 0).any()
        assert topk_mask(values, 6).all()

    def test_k_clamped(self):
        values = np.zeros((2, 4))
        assert topk_mask(values, 10).all()

    def test_row_counts_exact(self):
        values = np.random.default_rng(1).normal(size=(8, 31))
        mask = topk_mask(values, 7)
        assert np.all(mask.sum(axis=-1) == 7)

    @pytest.mark.parametrize("shape", [(31,), (1, 31), (1, 1, 31)])
    def test_single_row_matches_put_along_axis(self, shape):
        values = np.random.default_rng(3).normal(size=shape)
        idx = np.argpartition(values, 31 - 7, axis=-1)[..., 31 - 7 :]
        expected = np.zeros(shape, dtype=bool)
        np.put_along_axis(expected, idx, True, axis=-1)
        np.testing.assert_array_equal(topk_mask(values, 7), expected)

    def test_fraction_mask(self):
        values = np.random.default_rng(2).normal(size=(4, 20))
        mask = topk_fraction_mask(values, 0.25)
        assert np.all(mask.sum(axis=-1) == 5)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            topk_fraction_mask(np.zeros((1, 4)), 1.5)

    def test_threshold_mask(self):
        values = np.array([-3.0, 0.5, 2.0])
        assert list(threshold_mask(values, 1.0)) == [True, False, True]


class TestMLPMasks:
    def test_requires_2d_down(self):
        with pytest.raises(ValueError):
            MLPMasks(down_mask=np.ones(4, dtype=bool))

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            MLPMasks(down_mask=np.ones((2, 4), dtype=bool), up_axis="rows")

    def test_matrix_mask_lookup(self):
        down = np.ones((2, 4), dtype=bool)
        up = np.zeros((2, 3), dtype=bool)
        masks = MLPMasks(down_mask=down, up_axis="input", up_mask=up)
        axis, mask = masks.matrix_mask("up")
        assert axis == "input"
        assert mask is up
        axis, mask = masks.matrix_mask("down")
        assert axis == "neuron"
        with pytest.raises(KeyError):
            masks.matrix_mask("sideways")

    def test_n_tokens(self):
        masks = MLPMasks(down_mask=np.ones((5, 2), dtype=bool))
        assert masks.n_tokens == 5


class TestDensityAccounting:
    def test_dense_masks_density_one(self):
        masks = MLPMasks(down_mask=np.ones((4, 10), dtype=bool))
        assert masks_mlp_density(masks, d_model=6, d_ffn=10) == pytest.approx(1.0)

    def test_down_only_pruning(self):
        """Pruning only W_d at 50% keep gives (2 + 0.5)/3 density."""
        down = np.zeros((4, 10), dtype=bool)
        down[:, :5] = True
        masks = MLPMasks(down_mask=down)
        assert masks_mlp_density(masks, 6, 10) == pytest.approx((2 + 0.5) / 3)

    def test_neuron_pruning_all_three(self):
        down = np.zeros((2, 10), dtype=bool)
        down[:, :3] = True
        masks = MLPMasks(down_mask=down, up_axis="neuron", up_mask=down, gate_axis="neuron", gate_mask=down)
        assert masks_mlp_density(masks, 6, 10) == pytest.approx(0.3)

    def test_input_axis_density(self):
        """DIP-style masks: input columns at 50%, down neurons at 30%."""
        d_model, d_ffn = 8, 12
        input_mask = np.zeros((3, d_model), dtype=bool)
        input_mask[:, :4] = True
        down = np.zeros((3, d_ffn), dtype=bool)
        down[:, :4] = True  # 1/3 keep
        masks = MLPMasks(
            down_mask=down,
            input_mask=input_mask,
            up_axis="input",
            up_mask=input_mask,
            gate_axis="input",
            gate_mask=input_mask,
        )
        expected = (2 * 0.5 + 1 / 3) / 3
        assert masks_mlp_density(masks, d_model, d_ffn) == pytest.approx(expected)


class TestDenseBaseline:
    def test_identity_behaviour(self, tiny_model):
        method = DenseBaseline()
        mlp = tiny_model.blocks[0].mlp
        x = np.random.default_rng(0).normal(size=(5, tiny_model.config.d_model))
        masks = method.compute_masks(mlp, 0, x)
        assert masks.down_mask.all()
        assert np.allclose(method.sparse_forward(mlp, 0, x), mlp.forward_array(x))
        assert method.expected_density(4, 8) == 1.0
        assert method.memory_plan()["up"] == ("dense", None)

    def test_invalid_target_density(self):
        from repro.sparsity.dip import DynamicInputPruning

        with pytest.raises(ValueError):
            DynamicInputPruning(target_density=0.0)
