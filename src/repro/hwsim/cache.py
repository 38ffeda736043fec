"""Vectorised DRAM cache policies (paper Section 5.1).

Each MLP weight group (one layer × one matrix × one slicing axis) gets its
own cache instance whose capacity is derived from the DRAM allocation.  All
units within a group have identical byte size, so the policies operate on
unit counts and boolean activity vectors; this keeps the simulation fully
vectorised per token.

Implemented policies:

* :class:`NoCache` — every access is a Flash read (the "DIP No cache" curve
  of Figure 11).
* :class:`LRUCache` — evict the least recently used unit.
* :class:`LFUCache` — evict the least frequently used unit (the paper's
  default; marginally better than LRU in Figure 11).
* :class:`BeladyCache` — the clairvoyant optimal policy (Belady, 1966): evict
  the unit whose next use is farthest in the future.  Requires the full
  future trace and is therefore an offline oracle, used as an upper bound.

Units: capacities and accesses are counted in *units* (equally sized weight
columns/rows of one group), not bytes — the byte conversion happens in
:mod:`repro.hwsim.memory`; time advances in whole tokens.  What the model
abstracts away: associativity, cache lines, and replacement latency — only
hit/miss per unit per token matters.  Eviction runs in linear time per
token (a partition, not a sort) on integer scores and breaks ties by
(score, unit index): among equally scored units the lower index goes first.
Reproduces the eviction-policy comparison of paper Section 5.1 / Figure 11.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.sparsity.base import lowest_k


class GroupCache:
    """Base class: a cache over ``n_units`` equally sized units."""

    name = "abstract"
    requires_future = False

    def __init__(self, n_units: int, capacity_units: int):
        if n_units <= 0:
            raise ValueError("n_units must be positive")
        self.n_units = int(n_units)
        self.capacity_units = int(np.clip(capacity_units, 0, n_units))
        self.cached = np.zeros(self.n_units, dtype=bool)
        self.token_index = 0

    # ------------------------------------------------------------- interface
    def process_token(self, active: np.ndarray) -> Tuple[int, int]:
        """Serve one token's accesses.

        ``active`` is a boolean vector over units.  Returns ``(hits, misses)``
        in unit counts; the internal residency state is updated according to
        the policy.
        """
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.n_units,):
            raise ValueError(f"active vector must have shape ({self.n_units},)")
        hits = int(np.count_nonzero(active & self.cached))
        misses = int(np.count_nonzero(active)) - hits
        self._update(active)
        self.token_index += 1
        return hits, misses

    def _update(self, active: np.ndarray) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def cached_mask(self) -> np.ndarray:
        """Boolean residency mask (used by cache-aware masking)."""
        return self.cached

    def occupancy(self) -> int:
        return int(self.cached.sum())

    def reset(self) -> None:
        self.cached[:] = False
        self.token_index = 0


class NoCache(GroupCache):
    """Every MLP access misses; nothing is ever resident."""

    name = "none"

    def __init__(self, n_units: int, capacity_units: int):
        super().__init__(n_units, 0)

    def _update(self, active: np.ndarray) -> None:
        return None


class _EvictingCache(GroupCache):
    """Shared insert-then-evict logic parameterised by an eviction score."""

    def _scores(self) -> np.ndarray:
        """Integer scores; lower = evicted first.  Subclasses override."""
        raise NotImplementedError

    def _record_access(self, active: np.ndarray) -> None:
        """Update bookkeeping for the accessed units.  Subclasses override."""
        raise NotImplementedError

    def _update(self, active: np.ndarray) -> None:
        self._record_access(active)
        if self.capacity_units == 0:
            return
        cached = self.cached
        cached |= active
        overflow = int(np.count_nonzero(cached)) - self.capacity_units
        if overflow <= 0:
            return
        # Prefer evicting units that were not accessed this token; fall back
        # to the currently accessed ones only if they alone exceed capacity.
        candidates = np.flatnonzero(cached & ~active)
        if candidates.size < overflow:
            cached &= active
            overflow -= candidates.size
            candidates = np.flatnonzero(cached)
        cached[lowest_k(self._scores(), candidates, overflow)] = False


class LRUCache(_EvictingCache):
    """Least-recently-used eviction."""

    name = "lru"

    def __init__(self, n_units: int, capacity_units: int):
        super().__init__(n_units, capacity_units)
        self.last_used = np.full(self.n_units, -1, dtype=np.int64)

    def _record_access(self, active: np.ndarray) -> None:
        self.last_used[active] = self.token_index

    def _scores(self) -> np.ndarray:
        return self.last_used

    def reset(self) -> None:
        super().reset()
        self.last_used[:] = -1


class LFUCache(_EvictingCache):
    """Least-frequently-used eviction (the paper's default policy)."""

    name = "lfu"

    def __init__(self, n_units: int, capacity_units: int):
        super().__init__(n_units, capacity_units)
        self.frequency = np.zeros(self.n_units, dtype=np.int64)

    def _record_access(self, active: np.ndarray) -> None:
        self.frequency += active

    def _scores(self) -> np.ndarray:
        return self.frequency

    def reset(self) -> None:
        super().reset()
        self.frequency[:] = 0


class BeladyCache(_EvictingCache):
    """Belady's clairvoyant optimal replacement (offline oracle).

    The full activity matrix must be supplied via :meth:`set_future` before
    simulation; eviction removes the unit whose next use lies farthest in the
    future (never-used-again units first).
    """

    name = "belady"
    requires_future = True

    def __init__(self, n_units: int, capacity_units: int):
        super().__init__(n_units, capacity_units)
        self._next_use: Optional[np.ndarray] = None  # (T, n_units)

    def set_future(self, activity: np.ndarray) -> None:
        """Precompute next-use times from the full (T, n_units) activity matrix."""
        activity = np.asarray(activity, dtype=bool)
        if activity.ndim != 2 or activity.shape[1] != self.n_units:
            raise ValueError("activity must have shape (T, n_units)")
        n_tokens = activity.shape[0]
        horizon = n_tokens + 1
        next_use = np.full((n_tokens, self.n_units), horizon, dtype=np.int64)
        upcoming = np.full(self.n_units, horizon, dtype=np.int64)
        # Backward sweep: next_use[t, u] = first access time >= t+1.
        for t in range(n_tokens - 1, -1, -1):
            next_use[t] = upcoming
            upcoming = np.where(activity[t], t, upcoming)
        self._next_use = next_use

    def _record_access(self, active: np.ndarray) -> None:
        return None

    def _scores(self) -> np.ndarray:
        if self._next_use is None:
            raise RuntimeError("BeladyCache.set_future must be called before simulation")
        t = min(self.token_index, self._next_use.shape[0] - 1)
        # Farther next use = evicted first, so the score is the negated next-use time.
        return -self._next_use[t]

    def reset(self) -> None:
        super().reset()


CACHE_POLICIES: Dict[str, Type[GroupCache]] = {
    "none": NoCache,
    "lru": LRUCache,
    "lfu": LFUCache,
    "belady": BeladyCache,
}


def build_cache(policy: str, n_units: int, capacity_units: int) -> GroupCache:
    """Instantiate a cache policy by name."""
    if policy not in CACHE_POLICIES:
        raise KeyError(f"unknown cache policy '{policy}'; available: {sorted(CACHE_POLICIES)}")
    return CACHE_POLICIES[policy](n_units, capacity_units)
