"""Spans around the calls into each layer, recorded from the benchmark's side.

:class:`Recorder` replaces a layer's public function with a wrapper that
records a span — ``[name, start, end, parent, request_id]`` — and the counts
the per-layer metrics need (bytes, tokens, densities), then calls the
original.  A function imported by name into several modules is patched in
every module that holds it, so each call site is seen.  Spans stay in memory
until :meth:`Recorder.dump` writes them out when the run ends.

The recorder is single-threaded: spans nest through one stack, which holds
because every wrapped layer runs synchronously on the thread of the asyncio
loop that drives it.  Request-level spans that cross ``await`` points
(:class:`_TracedStream`) are recorded outside the stack.

:func:`layer_metrics` turns a dumped log into the per-layer metrics listed in
``BENCHMARK.json``; a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.measure import median, percentile, self_times, tail_percentile

_MISSING = object()

#: Wrapped call sites, by the span name they record into.
SITES: Dict[str, Tuple[str, ...]] = {
    "scheduler.request": ("ContinuousBatchingScheduler.stream",),
    "engine.admit": ("ContinuousBatch.admit",),
    "engine.step": ("ContinuousBatch.step",),
    "prefix_cache.lookup": ("PrefixCache.lookup",),
    "attention.forward": ("GroupedQueryAttention.forward_array",),
    "kv.append": ("KVCacheSlotView.append",),
    "sparsity.masks": ("DynamicInputPruning.compute_masks",),
    "sparsity.topk": ("topk_fraction_mask",),
    "backend.mlp": ("backend.masked_mlp", "backend.masked_down"),
    "backend.glu": ("backend.glu_act",),
    "backend.matmul": ("backend.matmul",),
    "backend.resolve": ("default_backend", "resolve_backend"),
    "hwsim.trace": ("synthesize_trace",),
    "hwsim.simulate": ("HWSimulator.simulate",),
    "hwsim.cache": ("GroupCache.process_token",),
    "hwsim.select": ("HWSimulator._group_activity",),
}

#: Span names each kind of workload must see fire; a name with several
#: sites needs at least one of them (DIP feeds its cached GLU activations to
#: ``masked_down``, so ``masked_mlp`` only fires for other methods).
REQUIRED = {
    "serving": (
        "scheduler.request", "engine.admit", "engine.step", "prefix_cache.lookup",
        "attention.forward", "kv.append", "sparsity.masks", "sparsity.topk", "backend.mlp",
        "backend.glu", "backend.matmul", "backend.resolve",
    ),
    "hwsim": ("hwsim.trace", "hwsim.simulate", "hwsim.cache", "hwsim.select", "sparsity.topk"),
}


class Recorder:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.fired: Dict[str, int] = defaultdict(int)
        self.extras: Dict[str, Any] = {}
        self.pending_enqueue: Dict[str, float] = {}
        self.prefix_caches: Dict[int, Any] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self._backend: Any = None
        self._backend_start: Optional[Dict[str, int]] = None

    # ---------------------------------------------------------------- wrapping
    def wrap(
        self,
        site: str,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """A wrapper around ``fn`` that records a span named ``name``.

        ``before(args, kwargs)`` and ``after(state, span, args, kwargs,
        result)`` run outside the timed interval, so their bookkeeping is not
        charged to the layer.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec.fired[site] += 1
            state = before(args, kwargs) if before is not None else None
            stack = rec._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = rec.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = rec.clock()
                stack.pop()
            if after is not None:
                after(state, span, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_function(self, site: str, name: str, fn: Callable[..., Any], **hooks: Any) -> int:
        """Patch ``fn`` in every ``repro`` module that binds it; returns the count."""
        wrapper = self.wrap(site, name, fn, **hooks)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"{site}: no module binds {fn!r}")
        return patched

    def patch_method(self, site: str, name: str, cls: type, attr: str, **hooks: Any) -> None:
        self._set(cls, attr, self.wrap(site, name, getattr(cls, attr), **hooks))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # ------------------------------------------------------------------ output
    def finish(self) -> None:
        """Collect end-of-run counters from the objects the wrappers saw."""
        if self._backend_start is not None:
            end = self._backend.cache_stats()
            self.extras["backend_cache"] = {k: end[k] - self._backend_start.get(k, 0) for k in end}
        self.extras["prefix_evictions"] = sum(
            cache.stats()["evicted_blocks"] for cache in self.prefix_caches.values()
        )

    def log(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counts": dict(self.counts), "fired": dict(self.fired),
                "extras": self.extras}

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.log(), handle)


def check_fired(fired: Dict[str, int], kind: str) -> None:
    """Raise if a layer this kind of workload exercises was never called."""
    missing = [name for name in REQUIRED[kind] if not any(fired.get(s) for s in SITES[name])]
    if missing:
        raise RuntimeError(f"wrappers that never fired on a {kind} workload: {missing}")


class _TracedStream:
    """Proxy of a scheduler ``TokenStream`` that records request-level spans.

    ``scheduler.ttft`` runs from the ``stream()`` call to the first token the
    consumer receives, ``scheduler.request`` to the end of the stream.
    """

    def __init__(self, inner: Any, rec: Recorder, enqueued: float) -> None:
        self._inner = inner
        self._rec = rec
        self._enqueued = enqueued

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    def __aiter__(self) -> Any:
        return self._iterate()

    async def _iterate(self) -> Any:
        rec, rid, start = self._rec, self._inner.request_id, self._enqueued
        first = True
        failed = True
        try:
            async for token in self._inner:
                if first:
                    rec.spans.append(["scheduler.ttft", start, rec.clock(), -1, rid])
                    first = False
                yield token
            failed = self._inner.finish_reason != "length"
        finally:
            rec.spans.append(["scheduler.request", start, rec.clock(), -1, rid])
            if failed:
                rec.counts["scheduler.requests_failed"] += 1


def install(rec: Recorder) -> Recorder:
    """Wrap every layer boundary listed in :data:`SITES`."""
    import repro.backend.base as backend_base
    import repro.engine.throughput  # noqa: F401  (binds synthesize_trace by name)
    import repro.hwsim.simulator  # noqa: F401  (binds topk_fraction_mask by name)
    import repro.sparsity.cache_aware  # noqa: F401  (binds topk_fraction_mask by name)
    from repro.engine.inference import ContinuousBatch
    from repro.hwsim.cache import GroupCache
    from repro.hwsim.simulator import HWSimulator
    from repro.hwsim.trace import synthesize_trace
    from repro.nn.attention import GroupedQueryAttention, KVCacheSlotView
    from repro.nn.prefix_cache import PrefixCache
    from repro.serving.scheduler import ContinuousBatchingScheduler
    from repro.sparsity.base import masks_mlp_density, topk_fraction_mask
    from repro.sparsity.dip import DynamicInputPruning

    counts = rec.counts

    # serving.scheduler: request-level spans from the public stream() call.
    original_stream = ContinuousBatchingScheduler.stream

    def stream(self: Any, request: Any) -> Any:
        rec.fired["ContinuousBatchingScheduler.stream"] += 1
        enqueued = rec.clock()
        inner = original_stream(self, request)
        rec.pending_enqueue[inner.request_id] = enqueued
        return _TracedStream(inner, rec, enqueued)

    rec._set(ContinuousBatchingScheduler, "stream", stream)

    # engine: admission (queue wait ends, prefill tokens) and decode steps.
    def admit_before(args: tuple, kwargs: dict) -> int:
        now = rec.clock()
        for rid in kwargs.get("request_ids") or ():
            if rid in rec.pending_enqueue:
                rec.spans.append(["scheduler.queue", rec.pending_enqueue.pop(rid), now, -1, rid])
        return args[0].prefill_tokens_forwarded

    def admit_after(forwarded: int, span: list, args: tuple, kwargs: dict, result: Any) -> None:
        counts["engine.prefill_tokens"] += args[0].prefill_tokens_forwarded - forwarded

    def step_after(state: Any, span: list, args: tuple, kwargs: dict, result: Any) -> None:
        counts["engine.step_slots"] += len(args[1])

    rec.patch_method("ContinuousBatch.admit", "engine.admit", ContinuousBatch, "admit",
                     before=admit_before, after=admit_after)
    rec.patch_method("ContinuousBatch.step", "engine.step", ContinuousBatch, "step", after=step_after)

    # nn.prefix_cache
    def lookup_after(state: Any, span: list, args: tuple, kwargs: dict, result: Any) -> None:
        rec.prefix_caches[id(args[0])] = args[0]
        counts["prefix_cache.prompt_tokens"] += len(args[1])
        if result is not None:
            counts["prefix_cache.hit_tokens"] += result.length

    rec.patch_method("PrefixCache.lookup", "prefix_cache.lookup", PrefixCache, "lookup",
                     after=lookup_after)

    # nn.attention
    def append_after(state: Any, span: list, args: tuple, kwargs: dict, result: Any) -> None:
        counts["kv.append_bytes"] += args[1].nbytes + args[2].nbytes

    rec.patch_method("GroupedQueryAttention.forward_array", "attention.forward",
                     GroupedQueryAttention, "forward_array")
    rec.patch_method("KVCacheSlotView.append", "kv.append", KVCacheSlotView, "append",
                     after=append_after)

    # sparsity
    def masks_after(state: Any, span: list, args: tuple, kwargs: dict, masks: Any) -> None:
        d_model, d_ffn = args[3].shape[-1], masks.down_mask.shape[-1]
        counts["sparsity.density_sum"] += masks_mlp_density(masks, d_model, d_ffn)
        counts["sparsity.union_sum"] += float(masks.down_mask.any(axis=0).mean())

    rec.patch_method("DynamicInputPruning.compute_masks", "sparsity.masks", DynamicInputPruning,
                     "compute_masks", after=masks_after)
    rec.patch_function("topk_fraction_mask", "sparsity.topk", topk_fraction_mask)

    # backend: the kernels of whichever backend the environment selects.
    backend = backend_base.default_backend()
    backend_cls = type(backend)
    if callable(getattr(backend, "cache_stats", None)):
        rec._backend, rec._backend_start = backend, backend.cache_stats()

    def dense_calls(self: Any) -> Optional[float]:
        stats = getattr(self, "stats", None)
        return stats.get("dense_calls") if isinstance(stats, dict) else None

    def weight_bytes(self: Any, before: Optional[float], mask: Any, *weights: Any) -> float:
        dense = before is None or dense_calls(self) != before
        if dense:
            return float(sum(w.nbytes for w in weights))
        active = int(mask.reshape(-1, mask.shape[-1]).any(axis=0).sum())
        return float(sum(w.nbytes * active / mask.shape[-1] for w in weights))

    def mlp_before(args: tuple, kwargs: dict) -> Optional[float]:
        return dense_calls(args[0])

    def mlp_after(before: Optional[float], span: list, args: tuple, kwargs: dict, result: Any) -> None:
        self = args[0]
        if len(args) >= 7:  # masked_mlp(self, w_up, w_gate, w_down, activation, x, neuron_mask)
            w_up, w_gate, w_down, x, mask = args[1], args[2], args[3], args[5], args[6]
            counts["backend.mlp_bytes"] += weight_bytes(self, before, mask, w_up, w_gate, w_down)
        else:  # masked_down(self, w_down, glu, down_mask)
            w_down, x, mask = args[1], args[2], args[3]
            counts["backend.mlp_bytes"] += weight_bytes(self, before, mask, w_down)
        counts["backend.mlp_tokens"] += x.size // x.shape[-1]

    def glu_after(state: Any, span: list, args: tuple, kwargs: dict, result: Any) -> None:
        counts["backend.mlp_bytes"] += args[1].nbytes + args[2].nbytes

    for attr in ("masked_mlp", "masked_down"):
        rec.patch_method(f"backend.{attr}", "backend.mlp", backend_cls, attr,
                         before=mlp_before, after=mlp_after)
    rec.patch_method("backend.glu_act", "backend.glu", backend_cls, "glu_act", after=glu_after)
    rec.patch_method("backend.matmul", "backend.matmul", backend_cls, "matmul")
    rec.patch_function("default_backend", "backend.resolve", backend_base.default_backend)
    rec.patch_function("resolve_backend", "backend.resolve", backend_base.resolve_backend)

    # hwsim
    rec.patch_function("synthesize_trace", "hwsim.trace", synthesize_trace)
    rec.patch_method("HWSimulator.simulate", "hwsim.simulate", HWSimulator, "simulate")
    rec.patch_method("HWSimulator._group_activity", "hwsim.select", HWSimulator, "_group_activity")
    rec.patch_method("GroupCache.process_token", "hwsim.cache", GroupCache, "process_token")
    return rec


# ------------------------------------------------------------------ metrics
#: Per-layer metrics as ``(name, unit, better)``, in ``BENCHMARK.json`` order.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("server.overhead_p50_ms", "ms", "lower"),
    ("scheduler.queue_wait_p50_ms", "ms", "lower"),
    ("scheduler.queue_wait_tail_ms", "ms", "lower"),
    ("scheduler.batch_width_mean", "slots", "higher"),
    ("scheduler.busy_frac", "fraction", "lower"),
    ("scheduler.requests_failed", "count", "lower"),
    ("engine.admit_ms", "ms", "lower"),
    ("engine.admit_calls", "count", "higher"),
    ("engine.prefill_tokens", "count", "lower"),
    ("engine.step_ms", "ms", "lower"),
    ("engine.step_calls", "count", "higher"),
    ("engine.step_ms_per_token", "ms", "lower"),
    ("prefix_cache.hit_token_frac", "fraction", "higher"),
    ("prefix_cache.lookup_ms", "ms", "lower"),
    ("prefix_cache.evictions", "count", "lower"),
    ("attention.forward_ms", "ms", "lower"),
    ("kv.append_ms", "ms", "lower"),
    ("kv.append_bytes", "B", "lower"),
    ("sparsity.masks_ms", "ms", "lower"),
    ("sparsity.masks_calls", "count", "higher"),
    ("sparsity.topk_ms", "ms", "lower"),
    ("sparsity.mlp_density", "fraction", "lower"),
    ("sparsity.union_density", "fraction", "lower"),
    ("backend.mlp_ms", "ms", "lower"),
    ("backend.matmul_ms", "ms", "lower"),
    ("backend.resolve_ms", "ms", "lower"),
    ("backend.mlp_bytes_per_token", "B", "lower"),
    ("backend.gather_plan_hit_rate", "fraction", "higher"),
    ("backend.dense_fallback_frac", "fraction", "lower"),
    ("hwsim.trace_s", "s", "lower"),
    ("hwsim.simulate_s", "s", "lower"),
    ("hwsim.cache_ms", "ms", "lower"),
    ("hwsim.select_ms", "ms", "lower"),
    ("hwsim.cache_hit_rate", "fraction", "higher"),
    ("hwsim.flash_bytes_per_token", "B", "lower"),
    ("hwsim.sim_tokens_per_s", "1/s", "higher"),
    ("gen.lateness_tail_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    log: Dict[str, Any],
    *,
    overhead_ratio: float,
    client_ttft: Optional[Dict[str, float]] = None,
    lateness: Sequence[float] = (),
    sim: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics from a dumped span log (see :data:`LAYER_METRICS`).

    ``client_ttft`` maps request id to the client-observed TTFT (seconds)
    for workloads behind HTTP; ``lateness`` is the open-loop generator's
    lateness sample (seconds); ``sim`` carries the simulated statistics.
    """
    spans = log["spans"]
    counts = defaultdict(float, log["counts"])
    extras = log.get("extras", {})
    own = self_times(spans)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, row in enumerate(spans):
        by_name[row[0]].append(i)

    def durations(name: str) -> List[float]:
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def mean_ms(name: str, self_time: bool = False) -> float:
        values = [own[i] for i in by_name.get(name, ())] if self_time else durations(name)
        return 1e3 * sum(values) / len(values) if values else 0.0

    def calls(name: str) -> float:
        return float(len(by_name.get(name, ())))

    out: Dict[str, float] = {name: 0.0 for name, _, _ in LAYER_METRICS}

    sched_ttft = {spans[i][4]: spans[i][2] - spans[i][1] for i in by_name.get("scheduler.ttft", ())}
    if client_ttft:
        gaps = [client_ttft[r] - sched_ttft[r] for r in client_ttft if r in sched_ttft]
        out["server.overhead_p50_ms"] = 1e3 * median(gaps) if gaps else 0.0
    waits = durations("scheduler.queue")
    if waits:
        out["scheduler.queue_wait_p50_ms"] = 1e3 * percentile(waits, 50.0)
        out["scheduler.queue_wait_tail_ms"] = 1e3 * percentile(waits, tail_percentile(len(waits)))
    requests = by_name.get("scheduler.request", ())
    if requests:
        wall = max(spans[i][2] for i in requests) - min(spans[i][1] for i in requests)
        busy = sum(durations("engine.admit")) + sum(durations("engine.step"))
        out["scheduler.busy_frac"] = _ratio(busy, wall)
    steps = calls("engine.step")
    out["scheduler.batch_width_mean"] = _ratio(counts["engine.step_slots"], steps)
    out["scheduler.requests_failed"] = counts["scheduler.requests_failed"]
    out["engine.admit_ms"] = mean_ms("engine.admit")
    out["engine.admit_calls"] = calls("engine.admit")
    out["engine.prefill_tokens"] = counts["engine.prefill_tokens"]
    out["engine.step_ms"] = mean_ms("engine.step")
    out["engine.step_calls"] = steps
    out["engine.step_ms_per_token"] = _ratio(1e3 * sum(durations("engine.step")), counts["engine.step_slots"])
    out["prefix_cache.hit_token_frac"] = _ratio(counts["prefix_cache.hit_tokens"],
                                                counts["prefix_cache.prompt_tokens"])
    out["prefix_cache.lookup_ms"] = mean_ms("prefix_cache.lookup")
    out["prefix_cache.evictions"] = float(extras.get("prefix_evictions", 0))
    out["attention.forward_ms"] = mean_ms("attention.forward", self_time=True)
    out["kv.append_ms"] = mean_ms("kv.append")
    out["kv.append_bytes"] = _ratio(counts["kv.append_bytes"], calls("kv.append"))
    masks = calls("sparsity.masks")
    out["sparsity.masks_ms"] = mean_ms("sparsity.masks", self_time=True)
    out["sparsity.masks_calls"] = masks
    out["sparsity.topk_ms"] = mean_ms("sparsity.topk")
    out["sparsity.mlp_density"] = _ratio(counts["sparsity.density_sum"], masks)
    out["sparsity.union_density"] = _ratio(counts["sparsity.union_sum"], masks)
    out["backend.mlp_ms"] = mean_ms("backend.mlp")
    out["backend.matmul_ms"] = mean_ms("backend.matmul")
    out["backend.resolve_ms"] = mean_ms("backend.resolve")
    out["backend.mlp_bytes_per_token"] = _ratio(counts["backend.mlp_bytes"], counts["backend.mlp_tokens"])
    plan = extras.get("backend_cache")
    if plan:
        out["backend.gather_plan_hit_rate"] = _ratio(
            plan["plan_hits"], plan["plan_hits"] + plan["misses"] + plan["promotions"])
        out["backend.dense_fallback_frac"] = _ratio(
            plan["dense_calls"], plan["dense_calls"] + plan["gather_calls"])
    out["hwsim.trace_s"] = mean_ms("hwsim.trace") / 1e3
    out["hwsim.simulate_s"] = mean_ms("hwsim.simulate") / 1e3
    out["hwsim.cache_ms"] = mean_ms("hwsim.cache")
    out["hwsim.select_ms"] = mean_ms("hwsim.select")
    if sim:
        out["hwsim.cache_hit_rate"] = sim["cache_hit_rate"]
        out["hwsim.flash_bytes_per_token"] = sim["mean_flash_bytes"]
        out["hwsim.sim_tokens_per_s"] = sim["tokens_per_second"]
    if lateness:
        out["gen.lateness_tail_ms"] = 1e3 * percentile(lateness, tail_percentile(len(lateness)))
    out["trace.overhead_ratio"] = overhead_ratio
    return out

