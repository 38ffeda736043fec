"""Gated MLP blocks (SwiGLU and ReLU-fied variants).

The MLP computes (paper Eq. 1-2)::

    GLU(x) = (W_u x) * sigma(W_g x)
    MLP(x) = W_d GLU(x)

with ``sigma`` = SiLU for SwiGLU models and ReLU for the ReLU-fied ablation.
Weights are stored so that *neuron i* of the MLP consists of row ``i`` of the
up and gate projections together with column ``i`` of the down projection —
this is the unit of sparsification and of DRAM caching throughout the
library.

All three weights are stored column-major (Fortran order): ``W.T`` is then
C-contiguous, so the units DIP keeps — input features of W_u/W_g and neurons
of W_d — are contiguous rows of it, which a batch-1 gather reads without
strided access (see :mod:`repro.backend.gather`).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend import active_backend
from repro.nn.activations import get_activation
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.utils.config import ConfigBase
from repro.utils.rng import new_rng, spawn_rng


@dataclasses.dataclass(frozen=True)
class GLUMLPConfig(ConfigBase):
    """Configuration of a gated MLP block."""

    d_model: int
    d_ffn: int
    activation: str = "silu"

    def __post_init__(self):
        if self.d_model <= 0 or self.d_ffn <= 0:
            raise ValueError("d_model and d_ffn must be positive")


class _ColumnMajorLinear(Linear):
    """:class:`Linear` with a column-major weight (see the module docstring)."""

    weight_order = "F"


class SwiGLUMLP(Module):
    """Gated MLP with a configurable gate non-linearity (default SiLU).

    Exposes both the autodiff path (:meth:`forward`) used for training and a
    plain-array inference path (:meth:`forward_array`,
    :meth:`glu_activations_array`) used by the sparsity methods and the
    inference engine, which need access to the intermediate activations.
    """

    def __init__(self, config: GLUMLPConfig, seed=None):
        super().__init__()
        self.config = config
        rng = new_rng(seed)
        self.up = _ColumnMajorLinear(config.d_model, config.d_ffn, seed=spawn_rng(rng, "up"))
        self.gate = _ColumnMajorLinear(config.d_model, config.d_ffn, seed=spawn_rng(rng, "gate"))
        self.down = _ColumnMajorLinear(config.d_ffn, config.d_model, seed=spawn_rng(rng, "down"))
        self.activation = get_activation(config.activation)

    # ------------------------------------------------------------- properties
    @property
    def d_model(self) -> int:
        return self.config.d_model

    @property
    def d_ffn(self) -> int:
        return self.config.d_ffn

    @property
    def w_up(self) -> np.ndarray:
        """Up-projection weight, shape ``(d_ffn, d_model)`` (neuron i = row i)."""
        return self.up.weight.data

    @property
    def w_gate(self) -> np.ndarray:
        """Gate-projection weight, shape ``(d_ffn, d_model)``."""
        return self.gate.weight.data

    @property
    def w_down(self) -> np.ndarray:
        """Down-projection weight, shape ``(d_model, d_ffn)`` (neuron i = column i)."""
        return self.down.weight.data

    # ---------------------------------------------------------------- training
    def forward(self, x: Tensor) -> Tensor:
        up = self.up(x)
        gate = self.activation(self.gate(x))
        return self.down(up * gate)

    # --------------------------------------------------------------- inference
    def glu_activations_array(self, x: np.ndarray, input_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Return GLU(x) = (W_u x) * sigma(W_g x) on plain arrays.

        ``input_mask`` zeroes input features before the projections (the DIP
        input-pruning path, Eq. 7); passing it here instead of pre-masking
        ``x`` lets gather backends exploit the column sparsity.
        """
        return active_backend().glu_act(
            self.w_up, self.w_gate, self.config.activation, x, input_mask=input_mask
        )

    def gate_activations_array(self, x: np.ndarray) -> np.ndarray:
        """Return sigma(W_g x) only (the partial activations used by Gate pruning)."""
        return self.activation.forward_array(self.gate.forward_array(x))

    def up_activations_array(self, x: np.ndarray) -> np.ndarray:
        """Return W_u x only (the partial activations used by Up pruning)."""
        return self.up.forward_array(x)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Dense inference on plain arrays (any leading batch dims)."""
        return self.down.forward_array(self.glu_activations_array(x))

    def forward_masked_array(
        self,
        x: np.ndarray,
        neuron_mask: np.ndarray,
        input_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sparse inference with an explicit neuron (and optional input) mask.

        ``neuron_mask`` has shape ``(..., d_ffn)`` (or ``(d_ffn,)``) and zeroes
        out GLU neurons; ``input_mask`` has shape ``(..., d_model)`` and zeroes
        out input features before the up/gate projections (Dynamic Input
        Pruning, Eq. 7).
        """
        return active_backend().masked_mlp(
            self.w_up, self.w_gate, self.w_down, self.config.activation, x, neuron_mask, input_mask=input_mask
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"SwiGLUMLP(d_model={self.d_model}, d_ffn={self.d_ffn}, act={self.config.activation})"


class ReLUGLUMLP(SwiGLUMLP):
    """ReLU-fied gated MLP (TurboSparse-style), used in Figures 3 and 6."""

    def __init__(self, config: GLUMLPConfig, seed=None):
        super().__init__(config.replace(activation="relu"), seed=seed)


class DenseMLP(Module):
    """Plain two-layer MLP (used for DejaVu-style predictors and small heads)."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, activation: str = "relu", seed=None):
        super().__init__()
        rng = new_rng(seed)
        self.fc1 = Linear(d_in, d_hidden, bias=True, seed=spawn_rng(rng, "fc1"))
        self.fc2 = Linear(d_hidden, d_out, bias=True, seed=spawn_rng(rng, "fc2"))
        self.activation = get_activation(activation)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.activation(self.fc1(x)))

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        hidden = self.activation.forward_array(self.fc1.forward_array(x))
        return self.fc2.forward_array(hidden)


def mlp_parameter_count(d_model: int, d_ffn: int) -> int:
    """Number of parameters in one gated MLP block (up + gate + down)."""
    return 3 * d_model * d_ffn
