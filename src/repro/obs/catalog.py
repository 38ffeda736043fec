"""The metric catalog: every metric name the repo emits, with its help text.

``METRIC_CATALOG`` is the single source of truth for metric names.  The
:class:`~repro.obs.metrics.MetricsRegistry` resolves help strings from it,
``docs/API.md`` mirrors it as the observability metric table, and reprolint
rule RL007 enforces that every ``counter(...)`` / ``gauge(...)`` /
``histogram(...)`` call site in ``repro.serving`` and ``repro.obs`` names a
catalogued metric with a string literal — so a metric can never be emitted
under an undocumented or typo'd name.

The dict below must stay a plain literal: RL007 reads it with ``ast`` (no
imports executed) so the lint works on any checkout.
"""

from __future__ import annotations

from typing import Dict

METRIC_CATALOG: Dict[str, str] = {
    # ------------------------------------------------ serving counters
    "serving_requests_submitted_total": "requests accepted into the scheduler queue",
    "serving_requests_completed_total": "requests finished with their full token budget",
    "serving_requests_failed_total": "requests retired because a decode/prefill forward raised",
    "serving_requests_timed_out_total": "requests retired past their timeout_s deadline",
    "serving_requests_cancelled_total": "requests cancelled (explicitly or by a dropped stream)",
    "serving_tokens_generated_total": "decoded tokens streamed to clients",
    "serving_decode_steps_total": "lock-step decode iterations executed",
    "serving_decode_step_slots_total": "slot-steps executed (decode steps x live batch width)",
    "serving_admit_seconds_total": "wall seconds spent admitting prompts (batched prefill)",
    "serving_step_seconds_total": "wall seconds spent in lock-step decode forwards",
    # -------------------------------------------------- serving gauges
    "serving_queue_depth": "requests waiting for a free KV-cache slot",
    "serving_active_requests": "requests currently decoding in the live batch",
    "serving_batch_occupancy": "occupied fraction of the KV-cache slots",
    # ---------------------------------------------- serving histograms
    "serving_queue_seconds": "per-request queue wait (submission to admission)",
    "serving_ttft_seconds": "per-request time to first token (submission to first token)",
    "serving_intertoken_seconds": "gap between consecutive decoded tokens of one request",
    # ----------------------------------------------- prefix-cache gauges
    "prefix_cache_enabled": "1 when the scheduler runs with a prefix cache",
    "prefix_cache_bytes": "bytes of cached prefix K/V blocks currently held",
    "prefix_cache_lookups": "prefix-cache lookups since scheduler start",
    "prefix_cache_hits": "prefix-cache lookups that matched at least one block",
    "prefix_cache_misses": "prefix-cache lookups that matched nothing",
    "prefix_cache_hit_tokens": "prompt tokens served from cached prefixes",
    "prefill_tokens_total": "prompt tokens admitted (cached + forwarded)",
    "prefill_tokens_forwarded": "prompt tokens that actually ran the prefill forward",
    "prefill_tokens_saved": "prompt tokens whose prefill forward the cache eliminated",
    # --------------------------------------------------- fleet counters
    "fleet_requests_total": "generation requests accepted by the fleet router",
    "fleet_requests_completed_total": "fleet requests that finished and streamed a result",
    "fleet_requests_failed_total": "fleet requests that errored or exhausted re-dispatch",
    "fleet_requests_redispatched_total": "in-flight requests re-dispatched after a worker death",
    "fleet_experiments_total": "experiment jobs routed to the experiment worker class",
    "fleet_worker_deaths_total": "workers declared dead (crash, SIGKILL, heartbeat silence)",
    "fleet_worker_restarts_total": "workers relaunched after a death",
    # ----------------------------------------------------- fleet gauges
    "fleet_workers_alive": "live workers across both classes (decode + experiment)",
    "fleet_queue_depth": "requests parked while no live worker can take them",
    "fleet_worker_up": "1 when the labelled worker is alive and ready",
    "fleet_worker_inflight": "requests currently assigned to the labelled worker",
    "fleet_worker_restarts": "times the labelled worker slot has been relaunched",
    "fleet_worker_requests_total": "requests served by the labelled worker (heartbeat mirror)",
    "fleet_worker_tokens_total": "tokens decoded by the labelled worker (heartbeat mirror)",
    "fleet_worker_busy_seconds": "busy wall seconds of the labelled worker (heartbeat mirror)",
    "fleet_worker_experiments_total": "experiments run by the labelled worker (heartbeat mirror)",
    # ------------------------------------------------- fleet histograms
    "fleet_ttft_seconds": "fleet-side time to first token (submission to first streamed token)",
    # --------------------------------------------- speculation gauges
    "speculation_enabled": "1 when the scheduler decodes speculatively (draft + verify)",
    "speculation_rounds_total": "draft/verify rounds executed (slot-rounds in batched decode)",
    "speculation_draft_tokens_total": "tokens proposed by the low-density draft pass",
    "speculation_accepted_tokens_total": "draft tokens the target verify forward accepted",
    "speculation_bonus_tokens_total": "rounds whose full draft was accepted (free bonus token)",
    "speculation_emitted_tokens_total": "tokens emitted by speculative decode (accepted + correction/bonus)",
    "speculation_acceptance_rate": "accepted fraction of drafted tokens (target agreement)",
    "speculation_drafts_per_token": "draft forwards spent per emitted token (lower is cheaper)",
    # -------------------------------------------------- backend gauges
    "backend_gather_calls": "sparse MLP calls that streamed only the kept weight rows",
    "backend_dense_calls": "sparse MLP calls that fell back to masked-dense",
}

__all__ = ["METRIC_CATALOG"]
