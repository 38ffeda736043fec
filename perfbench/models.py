"""The models and sessions each serving workload runs, built from fixed seeds.

The server child and the benchmark process (which computes the greedy
references) both build their sessions here, so they hold identical weights.
"""

from __future__ import annotations

from typing import Tuple

from repro.nn.model_zoo import build_model
from repro.nn.transformer import CausalLM, TransformerConfig
from repro.pipeline import SparseSession
from repro.serving import SchedulerConfig
from repro.sparsity.registry import REGISTRY

#: The random-init wide model of ``decode-b1``: wide enough that the MLP,
#: not Python dispatch, sets the cost of a batch-1 decode step.
WIDE_CONFIG = TransformerConfig(
    vocab_size=1024, d_model=512, n_layers=4, n_heads=8, n_kv_heads=2, d_ffn=2048,
    max_seq_len=256, activation="silu", tie_embeddings=True,
)


def _model(workload: str) -> Tuple[CausalLM, str, float, SchedulerConfig]:
    if workload == "decode-b1":
        return CausalLM(WIDE_CONFIG, seed=0), "wide-512", 0.35, SchedulerConfig(max_batch_size=1)
    if workload == "burst-batch":
        return build_model("phi3-mini", seed=0), "phi3-mini", 0.5, SchedulerConfig(max_batch_size=16)
    raise KeyError(f"no serving model for workload {workload!r}")


def build_session(workload: str) -> Tuple[SparseSession, SchedulerConfig]:
    """A DIP session over the workload's model, plus its scheduler settings."""
    model, name, density, config = _model(workload)
    model.eval()
    method = REGISTRY.create("dip", target_density=density)
    return SparseSession(model, method, model_name=name), config
