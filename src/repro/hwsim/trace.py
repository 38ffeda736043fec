"""Per-token weight-access traces for the HW simulator.

Two sources of traces:

* :func:`trace_from_masks` — record the actual masks produced by a sparsity
  method on a (simulation-scale) model run; exact but limited to the tiny
  models' dimensions.
* :func:`synthesize_trace` — generate paper-scale traces from activation
  statistics.  Per unit a log-normal base popularity (matching the heavy
  tails of Figure 10 left) is combined with a slowly varying AR(1) latent and
  per-token noise, producing realistic temporal reuse: the same popular
  columns tend to stay active across neighbouring tokens, which is exactly
  the property DRAM caching (and cache-aware masking) exploits.

For score-based traces the *selection* (top-k, optionally cache-aware per
Eq. 10) is deferred to the simulator, because DIP-CA's choice depends on the
live cache state.

Units: a trace is (token index × unit index) — booleans for recorded
activity, dimensionless magnitude scores for synthetic traces; no bytes or
seconds appear until :mod:`repro.hwsim.memory` / ``simulator`` convert them.
What the model abstracts away: actual activation values (only *which* units
a token touches matters) and cross-layer timing.  The synthetic generator
reproduces the heavy-tailed, temporally correlated access statistics of
paper Figure 10 (left) that make DRAM caching effective.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.hwsim.memory import WeightGroup, WeightMemoryLayout
from repro.sparsity.base import MLPMasks
from repro.utils.config import ConfigBase
from repro.utils.rng import new_rng, seed_from_string


@dataclasses.dataclass
class GroupTrace:
    """Access information for one weight group over ``n_tokens`` tokens.

    Exactly one of the three content sources is used:

    * ``activity`` — explicit boolean matrix ``(n_tokens, n_units)``;
    * ``scores`` / ``score_factory`` — magnitude scores from which the
      simulator selects ``keep_fraction`` units per token (optionally
      cache-aware);
    * neither — the group is dense: every unit is accessed every token.
    """

    group: WeightGroup
    n_tokens: int
    activity: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None
    score_factory: Optional[Callable[[], np.ndarray]] = None

    def __post_init__(self):
        if self.activity is not None:
            self.activity = np.asarray(self.activity, dtype=bool)
            if self.activity.shape != (self.n_tokens, self.group.n_units):
                raise ValueError("activity has wrong shape")

    @property
    def is_dense(self) -> bool:
        return self.activity is None and self.scores is None and self.score_factory is None

    def get_scores(self) -> Optional[np.ndarray]:
        """Materialise the score matrix (lazily generated if needed)."""
        if self.scores is None and self.score_factory is not None:
            self.scores = np.asarray(self.score_factory(), dtype=np.float64)
            if self.scores.shape != (self.n_tokens, self.group.n_units):
                raise ValueError("score factory produced wrong shape")
        return self.scores

    def release(self) -> None:
        """Drop materialised scores (keeps peak memory bounded at paper scale)."""
        if self.score_factory is not None:
            self.scores = None


@dataclasses.dataclass
class AccessTrace:
    """A full trace: one :class:`GroupTrace` per weight group."""

    n_tokens: int
    groups: List[GroupTrace]

    def __post_init__(self):
        for group_trace in self.groups:
            if group_trace.n_tokens != self.n_tokens:
                raise ValueError("all group traces must cover the same number of tokens")

    def group_for(self, layer_index: int, matrix: str) -> GroupTrace:
        for group_trace in self.groups:
            if group_trace.group.layer_index == layer_index and group_trace.group.matrix == matrix:
                return group_trace
        raise KeyError(f"no trace for layer {layer_index} matrix {matrix}")


@dataclasses.dataclass(frozen=True)
class SyntheticTraceConfig(ConfigBase):
    """Parameters of the statistical trace generator."""

    n_tokens: int = 128
    #: Std-dev of the per-unit log-popularity (heavier tail = more skew).
    #: Defaults calibrated so that DIP at 50% density on Phi-3-Medium with a
    #: 4 GB DRAM budget reaches a cache hit rate of ~0.5, matching the value
    #: the paper reports for that configuration (Appendix D discussion).
    popularity_sigma: float = 0.5
    #: AR(1) coefficient of the slowly varying latent (temporal reuse).
    temporal_correlation: float = 0.7
    #: Std-dev of the latent process driving slow drift.
    latent_sigma: float = 0.6
    #: Std-dev of the per-token observation noise.
    noise_sigma: float = 1.2
    seed: int = 0

    def __post_init__(self):
        if self.n_tokens <= 0:
            raise ValueError("n_tokens must be positive")
        if not 0.0 <= self.temporal_correlation < 1.0:
            raise ValueError("temporal_correlation must lie in [0, 1)")


def _synthesize_group_scores(
    n_tokens: int, n_units: int, config: SyntheticTraceConfig, seed: int
) -> np.ndarray:
    """Generate a ``(n_tokens, n_units)`` magnitude matrix for one group."""
    rng = new_rng(seed)
    base = rng.normal(0.0, config.popularity_sigma, size=n_units)
    rho = config.temporal_correlation
    innovation_scale = config.latent_sigma * np.sqrt(max(1e-12, 1.0 - rho**2))
    latent = np.empty((n_tokens, n_units))
    latent[0] = rng.normal(0.0, config.latent_sigma, size=n_units)
    for t in range(1, n_tokens):
        np.multiply(latent[t - 1], rho, out=latent[t])
        latent[t] += rng.normal(0.0, innovation_scale, size=n_units)
    # exp(base + latent + noise) in place; keep that summation order, traces are pinned bit for bit.
    latent += base
    latent += rng.normal(0.0, config.noise_sigma, size=(n_tokens, n_units))
    return np.exp(latent, out=latent)


def synthesize_trace(
    layout: WeightMemoryLayout,
    config: SyntheticTraceConfig = SyntheticTraceConfig(),
) -> AccessTrace:
    """Build a lazily materialised synthetic trace for every group of ``layout``.

    Dense groups (keep_fraction ``None``) carry no scores; sparse groups get a
    score factory seeded per group so the whole trace is reproducible without
    holding all score matrices in memory at once.
    """
    group_traces: List[GroupTrace] = []
    for group in layout.groups:
        if group.is_dense:
            group_traces.append(GroupTrace(group=group, n_tokens=config.n_tokens))
            continue
        group_seed = (config.seed * 1_000_003 + seed_from_string(f"{group.layer_index}-{group.matrix}")) % (2**63 - 1)  # reprolint: disable=RL005 -- hash-mixing prime for seed derivation, not a device capability
        factory = _make_score_factory(config.n_tokens, group.n_units, config, group_seed)
        group_traces.append(
            GroupTrace(group=group, n_tokens=config.n_tokens, score_factory=factory)
        )
    return AccessTrace(n_tokens=config.n_tokens, groups=group_traces)


def _make_score_factory(n_tokens: int, n_units: int, config: SyntheticTraceConfig, seed: int):
    def factory() -> np.ndarray:
        return _synthesize_group_scores(n_tokens, n_units, config, seed)

    return factory


def trace_from_masks(
    layout: WeightMemoryLayout,
    per_layer_masks: Sequence[MLPMasks],
) -> AccessTrace:
    """Build an explicit trace from per-layer :class:`MLPMasks`.

    ``per_layer_masks[i]`` holds the masks recorded for layer ``i`` over a
    token sequence; the layout's group dimensions must match the model that
    produced the masks (i.e. use a simulation-scale layout).
    """
    if len(per_layer_masks) != layout.config.n_layers:
        raise ValueError("need masks for every layer")
    n_tokens = per_layer_masks[0].n_tokens
    group_traces: List[GroupTrace] = []
    for group in layout.groups:
        masks = per_layer_masks[group.layer_index]
        axis, mask = masks.matrix_mask(group.matrix)
        if mask is None:
            group_traces.append(GroupTrace(group=group, n_tokens=n_tokens))
            continue
        if mask.shape != (n_tokens, group.n_units):
            raise ValueError(
                f"mask shape {mask.shape} does not match group "
                f"(layer {group.layer_index}, {group.matrix}) with {group.n_units} units"
            )
        group_traces.append(GroupTrace(group=group, n_tokens=n_tokens, activity=mask))
    return AccessTrace(n_tokens=n_tokens, groups=group_traces)
