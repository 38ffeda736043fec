"""Int8 weight backend: the quantization tables become runnable speed results.

Weights are quantized once per array — per-output-row symmetric int8 via
``repro.compression.quantizer.quantize_tensor_uniform`` (the same scales the
RTN/GPTQ accuracy tables use) — and cached.  The GEMM runs in float32 over
the integer code matrix (BLAS has no int8 path; float32 halves the memory
traffic and roughly doubles GEMM throughput vs float64), and per-row scales
are applied to the output, which is returned as float64 so downstream
kernels (RoPE's complex view in particular) are unaffected.

The gather-GEMM machinery is inherited: the masked MLP kernels gather *code*
rows and scales from the cached quantization, never re-quantizing gathered
copies, so the sparse and dense paths see identical weight values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.backend.gather import GatherGEMMBackend

_QuantKey = Tuple[int, Tuple[int, ...], float, float]
_QuantEntry = Tuple[np.ndarray, np.ndarray]  # (float32 codes, float64 per-row scales)


def quantize_weight_int8(weight: np.ndarray) -> _QuantEntry:
    """Per-output-row symmetric int8 quantization of a 2-D weight matrix.

    Returns ``(codes, scales)`` with ``codes`` float32 (integer-valued, in
    ``[-128, 127]``) and ``scales`` float64 of shape ``(out_features,)`` such
    that ``codes * scales[:, None]`` is the dequantized weight.
    """
    from repro.compression.quantizer import quantize_tensor_uniform

    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise ValueError("expected a 2-D weight matrix")
    codes = np.empty(weight.shape, dtype=np.float32)
    scales = np.empty(weight.shape[0], dtype=np.float64)
    for row in range(weight.shape[0]):
        row_codes, scale, _zero = quantize_tensor_uniform(weight[row], bits=8, symmetric=True)
        codes[row] = row_codes
        scales[row] = scale
    return codes, scales


class Int8Backend(GatherGEMMBackend):
    """Weight-only int8 linear kernels (activations, norms, softmax stay float)."""

    name = "int8"

    def __init__(self, cache_size: int = 64) -> None:
        super().__init__()
        self.quant_cache_size = int(cache_size)
        self._quant_cache: "OrderedDict[_QuantKey, _QuantEntry]" = OrderedDict()
        self._quant_lock = threading.Lock()

    def clear_cache(self) -> None:
        super().clear_cache()
        with self._quant_lock:
            self._quant_cache.clear()

    def _quantized(self, weight: np.ndarray) -> _QuantEntry:
        """Cached per-row int8 quantization of ``weight``."""
        key: _QuantKey = (id(weight), weight.shape, float(weight.flat[0]), float(weight.flat[-1]))
        with self._quant_lock:
            entry = self._quant_cache.get(key)
            if entry is not None:
                self._quant_cache.move_to_end(key)
                return entry
        entry = quantize_weight_int8(weight)
        with self._quant_lock:
            self._quant_cache[key] = entry
            while len(self._quant_cache) > self.quant_cache_size:
                self._quant_cache.popitem(last=False)
        return entry

    # ---------------------------------------------------------------- kernels
    def linear(self, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
        codes, scales = self._quantized(weight)
        lead = x.shape[:-1]
        x32 = x.reshape(-1, x.shape[-1]).astype(np.float32, copy=False)
        out = np.matmul(x32, codes.T).astype(np.float64)
        out *= scales
        out = out.reshape(*lead, weight.shape[0])
        if bias is not None:
            out += bias
        return out

    def gather_gemm(self, x: np.ndarray, weight: np.ndarray, idx: np.ndarray, axis: int = 0) -> np.ndarray:
        codes, scales = self._quantized(weight)
        sub = codes[idx] if axis == 0 else codes[:, idx]
        out = np.matmul(x.astype(np.float32, copy=False), sub.T).astype(np.float64)
        out *= scales[idx] if axis == 0 else scales
        return out

    def _plan_entry(self, weight: np.ndarray, idx: np.ndarray, axis: int):
        # Gather from the cached code matrix (stable identity, so the
        # promotion cache applies to the gathered code rows too) rather than
        # re-quantizing a gathered float copy.  The plan carries the matching
        # scale slice so the hot path never touches the quantization cache.
        codes, scales = self._quantized(weight)
        sub = self._gathered(codes, idx, axis)
        if sub is None:
            return None
        return sub.T, (scales[idx] if axis == 0 else scales)

    def _stream_rows(self, weight: np.ndarray) -> Optional[np.ndarray]:
        return None  # the float rows would bypass quantization: stay on the code paths

    def _plan_gemm(self, x2d: np.ndarray, entry) -> np.ndarray:
        sub_t, scales = entry
        out = np.matmul(x2d.astype(np.float32, copy=False), sub_t).astype(np.float64)
        out *= scales
        return out

    @staticmethod
    def _plan_fuse(up_entry, gate_entry):
        # Fused int8 entry: stacked code matrices plus the stacked per-output-row
        # scales, so the batched GEMM dequantizes exactly like two separate ones.
        return (
            np.ascontiguousarray(np.stack((up_entry[0], gate_entry[0]))),
            np.stack((up_entry[1], gate_entry[1]))[:, None, :],
        )
