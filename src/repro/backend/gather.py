"""Gather-GEMM backend: sparsity pays at compute time, not just in the simulator.

``masked_mlp``/``masked_down`` resolve the union of active neurons from the
mask and run the three MLP GEMMs over only the active rows of W_u/W_g and
columns of W_d.  Three regimes, chosen by a measured crossover and by the
batch width:

* **Stable index sets** (shared masks, static pruning, repeated decode steps)
  hit a cache of pre-compiled *kernel plans* — the gathered contiguous
  submatrices plus the pre-sliced per-token sub-mask, memoized under the mask
  bytes — so a steady-state call is one dict hit and three small GEMMs.  At
  the tiny shapes this library runs, per-call bookkeeping (union resolution,
  per-weight cache keys, sub-mask slicing) costs more than the gathered GEMMs
  themselves; compiling it away once is where the wall-clock wins come from
  (see ``BENCH_sparse_kernels.json``).
* **High-density or once-off index sets** fall back to the masked-dense
  reference: on small weights a fresh gather costs more than it saves (the
  union of 16 independent per-token top-k masks is near-dense anyway), so a
  never-seen index set runs dense first and is promoted to a cached plan only
  when it repeats.
* **Batch-1 streaming gather** (one token, a never-seen index set below the
  crossover, a column-major weight): the paper's on-device decode regime,
  where per-token masks never repeat and the step is bound by weight bytes.
  ``SwiGLUMLP`` stores its weights column-major, so the units DIP keeps —
  input features of W_u/W_g (``glu_act`` with an ``input_mask``) and
  neurons of W_d (``masked_down``) — are contiguous rows of ``W.T``.  The
  kept rows are copied chunk by chunk into a small reused buffer that stays
  in L2, and each chunk feeds one GEMV, so only the kept bytes leave memory.
  A cached plan still wins; row-major weights keep the dense fallback.

Per-token masks are honoured exactly in every regime: the batched variant
gathers the union and re-applies each token's sub-mask where it differs from
the union; a single token (``T == 1``) degenerates to the pure per-token
gather.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend.base import activation_fn
from repro.backend.numpy_ref import NumpyBackend

#: Default union-density above which masked-dense beats gather-GEMM.  The
#: kernel bench measures the break-even point between 0.65 and 0.80 on the
#: tiny model's MLP shapes (d_model=32, d_ffn=96, 16-token decode batches),
#: depending on runner load; the default sits below the worst measured case
#: so the gather path never runs where its win is inside measurement noise —
#: see ``benchmarks/bench_sparse_kernels.py``, which re-measures the
#: crossover on every run.
DEFAULT_CROSSOVER_DENSITY = 0.6

#: Bytes of weight rows one chunk of the batch-1 streaming gather copies.
#: The chunk buffer is reused, so it stays in L2 between the copy and the
#: GEMV that reads it; copying a whole index set at once spills to L3/DRAM
#: and costs about as much as the dense GEMV it replaces.
STREAM_CHUNK_BYTES = 512 * 1024

_CacheKey = Tuple[int, Tuple[int, ...], float, float, int, bytes]

class _DensePlan:
    """Plan-cache entry for index sets that resolved to the dense fallback
    (zero-size or above-crossover unions): remembers the decision so repeat
    sightings skip the union resolution too.  Holds the weight arrays so their
    ids stay valid for as long as the entry lives (see ``_plan_key``)."""

    __slots__ = ("weights",)

    def __init__(self, weights: Tuple[np.ndarray, ...]) -> None:
        self.weights = weights


class _MLPPlan:
    """Compiled steady-state kernel for one (W_u, W_g, W_d, mask) binding.

    ``fused`` holds the up- and gate-projections stacked along a leading axis
    of two (``[0]`` produces up, ``[1]`` produces gate): one batched matmul
    call beats two at gathered sizes, where per-call overhead is a large
    fraction of the work, and each half of its output is contiguous for the
    activation.  ``weights`` pins the source arrays alive so the id-based
    plan key can never alias a recycled address.
    """

    __slots__ = ("fused", "down", "sub_mask", "act", "weights")

    def __init__(
        self,
        fused,
        down,
        sub_mask: Optional[np.ndarray],
        act,
        weights: Tuple[np.ndarray, ...] = (),
    ) -> None:
        self.fused = fused
        self.down = down
        self.sub_mask = sub_mask
        self.act = act
        self.weights = weights


class _DownPlan:
    """Compiled steady-state kernel for one (W_d, mask) binding."""

    __slots__ = ("idx", "down", "sub_mask", "weights")

    def __init__(
        self,
        idx: np.ndarray,
        down,
        sub_mask: Optional[np.ndarray],
        weights: Tuple[np.ndarray, ...] = (),
    ) -> None:
        self.idx = idx
        self.down = down
        self.sub_mask = sub_mask
        self.weights = weights


class GatherGEMMBackend(NumpyBackend):
    """Sparse MLP kernels via gathered sub-GEMMs with a promotion cache.

    ``crossover_density`` — union densities above it always run masked-dense.
    ``cache_gathered`` — when ``False``, profitable index sets gather fresh on
    every call (the "cache off" row of the kernel bench) instead of using the
    seen-twice promotion cache.
    ``cache_size`` — bound on cached index sets and plans (LRU eviction).
    """

    name = "gather"

    def __init__(
        self,
        crossover_density: float = DEFAULT_CROSSOVER_DENSITY,
        cache_gathered: bool = True,
        cache_size: int = 128,
    ) -> None:
        if not 0.0 <= crossover_density <= 1.0:
            raise ValueError("crossover_density must lie in [0, 1]")
        self.crossover_density = float(crossover_density)
        self.cache_gathered = bool(cache_gathered)
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[_CacheKey, Optional[np.ndarray]]" = OrderedDict()
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._local = threading.local()  # per-thread streaming-gather buffer
        self.stats: Dict[str, int] = {}
        self.reset_stats()

    # ---------------------------------------------------------------- stats
    def reset_stats(self) -> None:
        """Zero the gather/dense decision and cache counters.

        ``cache_hits`` counts steady-state plan hits; ``cache_misses`` and
        ``cache_promotions`` track the underlying gathered-submatrix cache
        (first and second sightings of an index set).
        """
        self.stats = {
            "gather_calls": 0,
            "dense_calls": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_promotions": 0,
        }

    def cache_stats(self) -> Dict[str, int]:
        """Public snapshot of the plan-cache behaviour (``/stats``, ``/metrics``).

        ``plan_hits`` — steady-state compiled-plan hits; ``promotions`` —
        index sets compiled into a plan on their second sighting;
        ``misses`` — first sightings (served masked-dense); ``gather_calls``
        / ``dense_calls`` — which kernel regime each sparse MLP call took
        (``dense_calls`` includes the masked-dense fallbacks for unseen or
        above-crossover unions).
        """
        return {
            "gather_calls": int(self.stats["gather_calls"]),
            "dense_calls": int(self.stats["dense_calls"]),
            "plan_hits": int(self.stats["cache_hits"]),
            "misses": int(self.stats["cache_misses"]),
            "promotions": int(self.stats["cache_promotions"]),
            "cached_plans": len(self._plans),
        }

    def clear_cache(self) -> None:
        """Drop every cached gathered submatrix, plan, and promotion record."""
        with self._lock:
            self._cache.clear()
            self._plans.clear()

    # ------------------------------------------------------- gathered weights
    def _gathered(self, weight: np.ndarray, idx: np.ndarray, axis: int) -> Optional[np.ndarray]:
        """Gathered slice of ``weight``, cached under the index set.

        Returns ``None`` when the index set has not been seen before (the
        caller should fall back to masked-dense); the first sighting records
        the key, the second builds and caches the submatrix.  With
        ``cache_gathered=False`` the slice is rebuilt on every call.
        """
        if not self.cache_gathered:
            return weight[idx] if axis == 0 else weight[:, idx]
        # id() alone can be reused after a weight array is garbage-collected;
        # shape plus two corner values makes a stale hit practically impossible.
        key: _CacheKey = (
            id(weight),
            weight.shape,
            float(weight.flat[0]),
            float(weight.flat[-1]),
            axis,
            idx.tobytes(),
        )
        with self._lock:
            if key in self._cache:
                sub = self._cache[key]
                self._cache.move_to_end(key)
                if sub is not None:
                    return sub
            else:
                self._cache[key] = None
                self.stats["cache_misses"] += 1
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                return None
            # Second sighting: promote the recorded key to a real submatrix.
            self.stats["cache_promotions"] += 1
        sub = weight[idx] if axis == 0 else weight[:, idx]
        with self._lock:
            self._cache[key] = sub
        return sub

    # ------------------------------------------------------------ plan cache
    @staticmethod
    def _plan_key(tag, w0: np.ndarray, w1: np.ndarray, w2: np.ndarray, mask: np.ndarray) -> tuple:
        """Cache key binding the exact mask bytes to the weight identities.

        Built on the hot path, so it is a flat tuple of cheap components.
        Keying on ``id()`` alone is safe *here* (unlike the submatrix cache,
        which guards with corner values): every stored plan holds strong
        references to its weight arrays, so an id in the table can never be
        recycled while its entry is alive, and eviction drops the entry and
        the reference together.
        """
        return (tag, id(w0), id(w1), id(w2), mask.shape, mask.dtype.char, mask.tobytes())

    def _store_plan(self, key: tuple, plan: object) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.cache_size:
                self._plans.popitem(last=False)

    def _plan_entry(self, weight: np.ndarray, idx: np.ndarray, axis: int):
        """Per-weight plan data (the gathered slice, pre-transposed for the
        GEMM), or ``None`` pre-promotion.

        Int8 backends override this to gather quantized code rows and carry
        the matching scale slice alongside.
        """
        sub = self._gathered(weight, idx, axis)
        return None if sub is None else sub.T

    def _plan_gemm(self, x2d: np.ndarray, entry) -> np.ndarray:
        """``x2d`` against a plan entry.  Both gather axes reduce to
        ``x2d @ sub.T``: row gathers select output units, column gathers
        select contraction units (``x2d`` then holds gathered activations)."""
        return x2d @ entry

    @staticmethod
    def _plan_fuse(up_entry, gate_entry):
        """Stack the up and gate plan entries into one ``(2, in, out)`` operand.

        Row-major, like the column-major weights' ``W.T`` the masked-dense
        path multiplies by: BLAS runs it untransposed, which is faster at
        decode-batch shapes.
        """
        return np.ascontiguousarray(np.stack((up_entry, gate_entry)))

    # ------------------------------------------------------------ mask → idx
    @staticmethod
    def _union_index(mask: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened 2-D mask view and the union index set over its rows."""
        mask2d = mask.reshape(-1, width) if mask.ndim > 1 else mask.reshape(1, width)
        union = mask2d.any(axis=0) if mask2d.shape[0] > 1 else (mask2d[0] != 0)
        return mask2d, np.flatnonzero(union)

    @staticmethod
    def _sub_mask(mask2d: np.ndarray, idx: np.ndarray) -> Optional[np.ndarray]:
        """Per-token mask over the union columns; ``None`` when it is all-ones."""
        sub = mask2d[:, idx]
        if sub.dtype == np.bool_ and sub.all():
            return None  # every token uses the whole union: nothing to re-mask
        return sub

    def _mlp_plan(
        self,
        w_up: np.ndarray,
        w_gate: np.ndarray,
        w_down: np.ndarray,
        activation: str,
        mask: np.ndarray,
    ) -> Optional[_MLPPlan]:
        """Steady-state kernel plan for this mask, or ``None`` → masked-dense."""
        d_ffn = w_up.shape[0]
        if not self.cache_gathered:
            mask2d, idx = self._union_index(mask, d_ffn)
            if idx.size == 0 or idx.size > self.crossover_density * d_ffn:
                return None
            return _MLPPlan(
                self._plan_fuse(self._plan_entry(w_up, idx, 0), self._plan_entry(w_gate, idx, 0)),
                self._plan_entry(w_down, idx, 1),
                self._sub_mask(mask2d, idx),
                activation_fn(activation),
            )
        key = self._plan_key(activation, w_up, w_gate, w_down, mask)
        # Lock-free read: dict.get is atomic under the GIL and plans are
        # immutable once stored, so the worst race is a redundant rebuild.
        cached = self._plans.get(key)
        if cached is not None:
            if type(cached) is _DensePlan:
                return None
            self.stats["cache_hits"] += 1
            return cached  # type: ignore[return-value]
        weights = (w_up, w_gate, w_down)
        mask2d, idx = self._union_index(mask, d_ffn)
        if idx.size == 0 or idx.size > self.crossover_density * d_ffn:
            self._store_plan(key, _DensePlan(weights))
            return None
        # Probe every weight before deciding: the list deliberately avoids
        # short-circuiting so all three promotion states advance together on
        # every call (no partial GEMMs during the promotion step).
        entries = [
            self._plan_entry(w_up, idx, 0),
            self._plan_entry(w_gate, idx, 0),
            self._plan_entry(w_down, idx, 1),
        ]
        if any(entry is None for entry in entries):
            return None  # promotion pending: dense now, plan on the next sighting
        plan = _MLPPlan(
            self._plan_fuse(entries[0], entries[1]),
            entries[2],
            self._sub_mask(mask2d, idx),
            activation_fn(activation),
            weights,
        )
        self._store_plan(key, plan)
        return plan

    def _down_plan(self, w_down: np.ndarray, mask: np.ndarray) -> Optional[_DownPlan]:
        d_ffn = w_down.shape[1]
        if not self.cache_gathered:
            mask2d, idx = self._union_index(mask, d_ffn)
            if idx.size == 0 or idx.size > self.crossover_density * d_ffn:
                return None
            return _DownPlan(idx, self._plan_entry(w_down, idx, 1), self._sub_mask(mask2d, idx))
        key = self._plan_key("down", w_down, w_down, w_down, mask)
        cached = self._plans.get(key)  # lock-free: see _mlp_plan
        if cached is not None:
            if type(cached) is _DensePlan:
                return None
            self.stats["cache_hits"] += 1
            return cached  # type: ignore[return-value]
        mask2d, idx = self._union_index(mask, d_ffn)
        if idx.size == 0 or idx.size > self.crossover_density * d_ffn:
            self._store_plan(key, _DensePlan((w_down,)))
            return None
        entry = self._plan_entry(w_down, idx, 1)
        if entry is None:
            return None
        plan = _DownPlan(idx, entry, self._sub_mask(mask2d, idx), (w_down,))
        self._store_plan(key, plan)
        return plan

    # ------------------------------------------------- batch-1 streaming gather
    def _stream_rows(self, weight: np.ndarray) -> Optional[np.ndarray]:
        """``weight.T`` when its rows are contiguous (a column-major weight),
        else ``None``: the streaming gather does not apply.

        Int8 backends override this to opt out (their GEMMs read codes).
        """
        rows = weight.T
        return rows if rows.flags.c_contiguous else None

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
        plan = self._mlp_plan(w_up, w_gate, w_down, activation, np.asarray(neuron_mask))
        if plan is None:
            self.stats["dense_calls"] += 1
            return super().masked_mlp(w_up, w_gate, w_down, activation, x, neuron_mask, input_mask=input_mask)
        self.stats["gather_calls"] += 1
        x_eff = x * input_mask if input_mask is not None else x
        x2d = x_eff.reshape(-1, x_eff.shape[-1])
        ug = self._plan_gemm(x2d, plan.fused)
        glu = plan.act(ug[1])  # fresh array: in-place from here on
        glu *= ug[0]
        if plan.sub_mask is not None:
            glu *= plan.sub_mask
        out = self._plan_gemm(glu, plan.down)
        return out.reshape(*x.shape[:-1], w_down.shape[0])

    def masked_down(self, w_down: np.ndarray, glu: np.ndarray, down_mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(down_mask)
        plan = self._down_plan(w_down, mask)
        if plan is None:
            idx = self._stream_index(mask, glu)
            rows = None if idx is None else self._stream_rows(w_down)
            if rows is None:
                self.stats["dense_calls"] += 1
                return super().masked_down(w_down, glu, down_mask)
            self.stats["gather_calls"] += 1
            out = self._stream_gemv(glu.reshape(-1)[idx], rows, idx)
            return out.reshape(*glu.shape[:-1], w_down.shape[0])
        self.stats["gather_calls"] += 1
        acts = glu.reshape(-1, glu.shape[-1])[:, plan.idx]  # fresh copy: safe to mask in place
        if plan.sub_mask is not None:
            np.multiply(acts, plan.sub_mask, out=acts)
        out = self._plan_gemm(acts, plan.down)
        return out.reshape(*glu.shape[:-1], w_down.shape[0])
