"""Linear (fully connected) layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend import active_backend
from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng

#: Elements per block when a column-major weight is drawn row block by row
#: block (512 KB of float64): no transient full-size copy is ever made, and
#: each block is tall enough that its scatter into columns stays cheap.
_INIT_BLOCK_ELEMS = 65536


def _normal_weight(rng: np.random.Generator, scale: float, shape: tuple, order: str) -> np.ndarray:
    """``rng.normal(0, scale, size=shape)`` stored in memory ``order``.

    A column-major weight is filled in row blocks from the same stream, so
    its values and the generator's final state equal a single C-order draw.
    """
    if order == "C":
        return rng.normal(0.0, scale, size=shape)
    weight = np.empty(shape, order=order)
    rows = max(1, _INIT_BLOCK_ELEMS // shape[1])
    for start in range(0, shape[0], rows):
        block = weight[start : start + rows]
        block[...] = rng.normal(0.0, scale, size=block.shape)
    return weight


class Linear(Module):
    """Affine map ``y = x @ W^T + b``.

    The weight is stored as ``(out_features, in_features)`` matching the
    convention used throughout the paper: *column* ``i`` of the up/gate
    projections (i.e. row ``i`` of this weight matrix) together with *row*
    ``i`` of the down projection form neuron ``i`` of the MLP.
    ``weight_order`` is its memory order (row-major unless a subclass says
    otherwise); shape and values do not depend on it.
    """

    weight_order = "C"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = False,
        seed=None,
        init_scale: Optional[float] = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(seed)
        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(in_features)
        self.weight = Parameter(_normal_weight(rng, scale, (out_features, in_features), self.weight_order))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Inference-only fast path on plain arrays (no autodiff graph).

        Routed through the active compute backend (see
        :mod:`repro.backend`), which flattens leading batch dimensions so
        the whole call is one GEMM.
        """
        bias = self.bias.data if self.bias is not None else None
        return active_backend().linear(x, self.weight.data, bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"
