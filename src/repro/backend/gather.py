"""Gather-GEMM backend: sparsity pays at compute time, not just in the simulator.

Two regimes, chosen per call from the inputs:

* **Batch-1 streaming gather** (one token, a boolean mask at or below the
  crossover density, a column-major weight larger than one stream chunk):
  the paper's on-device decode regime, where per-token masks never repeat
  and the step is bound by weight bytes.  ``SwiGLUMLP`` stores its weights
  column-major, so the units DIP keeps — input features of W_u/W_g
  (``glu_act`` with an ``input_mask``) and neurons of W_d (``masked_down``)
  — are contiguous rows of ``W.T``.  The kept rows are copied chunk by chunk
  into a small reused buffer that stays in L2, and each chunk feeds one
  GEMV, so only the kept bytes leave memory.
* **Masked-dense** (everything else): the numpy reference this backend
  inherits.  ``masked_mlp`` always applies its neuron mask this way (its
  up/gate half still goes through ``glu_act``).  Several tokens' union of
  per-token masks is near-dense anyway (16 independent top-k masks at
  density 0.15 cover ~93% of neurons), and a weight that fits in one chunk
  is already cache-resident, so gathering it only adds copies.

Both regimes compute what the numpy reference computes, up to the order of
floating-point sums; greedy decode is token-identical to it.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import numpy as np

from repro.backend.base import activation_fn
from repro.backend.numpy_ref import NumpyBackend

#: Default mask density above which a single token runs masked-dense instead
#: of streaming its kept rows.  On the 512/2048 decode geometry at one BLAS
#: thread the kernel bench measures the stream at 1.2-1.4x masked-dense at
#: density 0.35 and 0.89-1.04x at 0.5, breaking even between 0.40 and 0.50;
#: between the break-even and this default the stream runs up to ~10% slower
#: than masked-dense — see ``benchmarks/bench_sparse_kernels.py``, which
#: re-measures the crossover on every run.
DEFAULT_CROSSOVER_DENSITY = 0.6

#: Bytes of weight rows one chunk of the batch-1 streaming gather copies.
#: The chunk buffer is reused, so it stays in L2 between the copy and the
#: GEMV that reads it; copying a whole index set at once spills to L3/DRAM
#: and costs about as much as the dense GEMV it replaces.  A weight no larger
#: than one chunk is not streamed at all: it already fits in L2.
STREAM_CHUNK_BYTES = 512 * 1024


class GatherGEMMBackend(NumpyBackend):
    """Sparse MLP kernels that read only the kept weight rows at batch 1.

    ``crossover_density`` — masks denser than this always run masked-dense.
    """

    name = "gather"

    def __init__(self, crossover_density: float = DEFAULT_CROSSOVER_DENSITY) -> None:
        if not 0.0 <= crossover_density <= 1.0:
            raise ValueError("crossover_density must lie in [0, 1]")
        self.crossover_density = float(crossover_density)
        self._local = threading.local()  # per-thread streaming-gather buffer
        self.stats: Dict[str, int] = {}
        self.reset_stats()

    # ---------------------------------------------------------------- stats
    def reset_stats(self) -> None:
        """Zero the per-regime call counters."""
        self.stats = {"gather_calls": 0, "dense_calls": 0}

    def cache_stats(self) -> Dict[str, int]:
        """Public snapshot of the kernel decisions (``/stats``).

        ``gather_calls`` / ``dense_calls`` — which regime each sparse MLP
        call took.  ``plan_hits``, ``misses``, ``promotions`` and
        ``cached_plans`` are always 0: the backend keeps no plan cache
        (per-token DIP masks never repeat), and the keys stay only because
        benchmark records derive ``backend.gather_plan_hit_rate`` from them.
        """
        return {
            "gather_calls": int(self.stats["gather_calls"]),
            "dense_calls": int(self.stats["dense_calls"]),
            "plan_hits": 0,
            "misses": 0,
            "promotions": 0,
            "cached_plans": 0,
        }

    # ------------------------------------------------- batch-1 streaming gather
    @staticmethod
    def _stream_rows(weight: np.ndarray) -> Optional[np.ndarray]:
        """``weight.T`` when streaming its rows pays, else ``None``: the rows
        must be contiguous (a column-major weight) and span more than one
        chunk."""
        rows = weight.T
        if not rows.flags.c_contiguous or weight.nbytes <= STREAM_CHUNK_BYTES:
            return None
        return rows

    def _stream_index(self, mask: np.ndarray, x: np.ndarray) -> Optional[np.ndarray]:
        """Kept units of a single token's boolean mask, or ``None`` when the
        streaming gather does not apply (several tokens, soft or empty
        masks, density above the crossover)."""
        width = x.shape[-1]
        if x.size != width or mask.size != width or mask.dtype != np.bool_:
            return None
        idx = np.flatnonzero(mask)
        if idx.size == 0 or idx.size > self.crossover_density * width:
            return None
        return idx

    def _stream_gemv(self, v: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``v @ rows[idx]`` for gathered activations ``v``, one GEMV per
        chunk of kept rows copied into the reused buffer."""
        width = rows.shape[1]
        step = max(1, STREAM_CHUNK_BYTES // (width * rows.itemsize))
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.dtype != rows.dtype or buf.size < step * width:
            buf = self._local.buf = np.empty(step * width, dtype=rows.dtype)
        out = None
        for start in range(0, idx.size, step):
            part = idx[start : start + step]
            chunk = buf[: part.size * width].reshape(part.size, width)
            rows.take(part, axis=0, out=chunk, mode="clip")  # "clip": no bounds-check copy
            partial = v[start : start + step] @ chunk
            if out is None:
                out = partial
            else:
                out += partial
        return out

    # --------------------------------------------------------------- kernels
    def glu_act(
        self,
        w_up: np.ndarray,
        w_gate: np.ndarray,
        activation: str,
        x: np.ndarray,
        input_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if input_mask is None:
            return super().glu_act(w_up, w_gate, activation, x)
        idx = self._stream_index(np.asarray(input_mask), x)
        up_rows = gate_rows = None
        if idx is not None:
            up_rows, gate_rows = self._stream_rows(w_up), self._stream_rows(w_gate)
        if up_rows is None or gate_rows is None:
            self.stats["dense_calls"] += 1
            return super().glu_act(w_up, w_gate, activation, x, input_mask=input_mask)
        self.stats["gather_calls"] += 1
        v = x.reshape(-1)[idx]
        glu = activation_fn(activation)(self._stream_gemv(v, gate_rows, idx))
        glu *= self._stream_gemv(v, up_rows, idx)
        return glu.reshape(*x.shape[:-1], w_up.shape[0])

    def masked_mlp(
        self,
        w_up: np.ndarray,
        w_gate: np.ndarray,
        w_down: np.ndarray,
        activation: str,
        x: np.ndarray,
        neuron_mask: np.ndarray,
        input_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self.stats["dense_calls"] += 1
        return super().masked_mlp(w_up, w_gate, w_down, activation, x, neuron_mask, input_mask=input_mask)

    def masked_down(self, w_down: np.ndarray, glu: np.ndarray, down_mask: np.ndarray) -> np.ndarray:
        idx = self._stream_index(np.asarray(down_mask), glu)
        rows = None if idx is None else self._stream_rows(w_down)
        if rows is None:
            self.stats["dense_calls"] += 1
            return super().masked_down(w_down, glu, down_mask)
        self.stats["gather_calls"] += 1
        out = self._stream_gemv(glu.reshape(-1)[idx], rows, idx)
        return out.reshape(*glu.shape[:-1], w_down.shape[0])
