"""Tests for the vectorised DRAM cache policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.hwsim.cache import BeladyCache, LFUCache, LRUCache, NoCache, build_cache


def one_hot(n, idx):
    v = np.zeros(n, dtype=bool)
    v[list(np.atleast_1d(idx))] = True
    return v


class TestFactory:
    def test_build_by_name(self):
        assert isinstance(build_cache("none", 4, 2), NoCache)
        assert isinstance(build_cache("lru", 4, 2), LRUCache)
        assert isinstance(build_cache("lfu", 4, 2), LFUCache)
        assert isinstance(build_cache("belady", 4, 2), BeladyCache)

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            build_cache("fifo", 4, 2)

    def test_capacity_clamped(self):
        cache = LRUCache(4, 100)
        assert cache.capacity_units == 4

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            LRUCache(0, 1)


class TestNoCache:
    def test_always_misses(self):
        cache = NoCache(8, 4)
        active = one_hot(8, [0, 1, 2])
        for _ in range(3):
            hits, misses = cache.process_token(active)
            assert hits == 0 and misses == 3
        assert cache.occupancy() == 0


class TestLRUCache:
    def test_hits_on_repeat(self):
        cache = LRUCache(8, 4)
        active = one_hot(8, [0, 1])
        assert cache.process_token(active) == (0, 2)
        assert cache.process_token(active) == (2, 0)

    def test_evicts_least_recent(self):
        cache = LRUCache(6, 2)
        cache.process_token(one_hot(6, 0))  # cache: {0}
        cache.process_token(one_hot(6, 1))  # cache: {0,1}
        cache.process_token(one_hot(6, 2))  # evicts 0 (least recently used)
        hits, misses = cache.process_token(one_hot(6, 1))
        assert hits == 1
        hits, misses = cache.process_token(one_hot(6, 0))
        assert hits == 0

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(0)
        cache = LRUCache(32, 5)
        for _ in range(50):
            cache.process_token(rng.random(32) > 0.7)
            assert cache.occupancy() <= 5

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            LRUCache(4, 2).process_token(np.ones(5, dtype=bool))

    def test_reset(self):
        cache = LRUCache(4, 2)
        cache.process_token(one_hot(4, 0))
        cache.reset()
        assert cache.occupancy() == 0
        assert cache.token_index == 0


class TestLFUCache:
    def test_keeps_frequent_unit(self):
        cache = LFUCache(6, 2)
        hot = one_hot(6, 0)
        for _ in range(5):
            cache.process_token(hot)
        cache.process_token(one_hot(6, 1))
        cache.process_token(one_hot(6, 2))  # must evict 1 (freq 1), not 0 (freq 5)
        assert cache.process_token(hot) == (1, 0)

    def test_zero_capacity(self):
        cache = LFUCache(4, 0)
        active = one_hot(4, [0, 1])
        cache.process_token(active)
        assert cache.process_token(active) == (0, 2)


class TestBeladyCache:
    def test_requires_future(self):
        cache = BeladyCache(4, 2)
        with pytest.raises(RuntimeError):
            cache.process_token(np.ones(4, dtype=bool))

    def test_future_shape_checked(self):
        cache = BeladyCache(4, 2)
        with pytest.raises(ValueError):
            cache.set_future(np.ones((3, 5), dtype=bool))

    def test_evicts_farthest_next_use(self):
        # Access pattern: token0 {0,1}, token1 {0}, token2 {1}, token3 {2}
        activity = np.zeros((4, 3), dtype=bool)
        activity[0, [0, 1]] = True
        activity[1, 0] = True
        activity[2, 1] = True
        activity[3, 2] = True
        cache = BeladyCache(3, 1)
        cache.set_future(activity)
        cache.process_token(activity[0])  # can keep only one of {0,1}; 0 is used sooner -> keep 0
        hits, _ = cache.process_token(activity[1])
        assert hits == 1

    def test_belady_at_least_as_good_as_lru(self):
        """On random traces the oracle's hit count must dominate LRU's."""
        rng = np.random.default_rng(3)
        n_units, n_tokens, capacity = 24, 60, 6
        activity = rng.random((n_tokens, n_units)) > 0.8
        belady = BeladyCache(n_units, capacity)
        belady.set_future(activity)
        lru = LRUCache(n_units, capacity)
        belady_hits = sum(belady.process_token(a)[0] for a in activity)
        lru_hits = sum(lru.process_token(a)[0] for a in activity)
        assert belady_hits >= lru_hits


class TestCachedMask:
    def test_mask_reflects_contents(self):
        cache = LFUCache(4, 2)
        cache.process_token(one_hot(4, [1, 3]))
        mask = cache.cached_mask()
        assert mask[1] and mask[3] and not mask[0]


def reference_eviction(policy, capacity, activity):
    """Per-token ``(hits, misses)`` and residency of the stable-argsort eviction."""
    n_tokens, n_units = activity.shape
    capacity = min(max(capacity, 0), n_units)
    cached, last_used, frequency = np.zeros(n_units, bool), np.full(n_units, -1), np.zeros(n_units, int)
    next_use = np.array([[next((s for s in range(t + 1, n_tokens) if activity[s, u]), n_tokens + 1)
                          for u in range(n_units)] for t in range(n_tokens)])
    steps = []
    for t, active in enumerate(activity):
        hits, misses = int(np.sum(active & cached)), int(np.sum(active & ~cached))
        last_used[active], frequency[active] = t, frequency[active] + 1
        overflow = int(np.sum(cached | active)) - capacity
        if capacity:
            cached |= active
        if capacity and overflow > 0:
            scores = {"lru": last_used, "lfu": frequency, "belady": -next_use[t]}[policy]
            candidates, active_cached = np.flatnonzero(cached & ~active), np.flatnonzero(cached & active)
            if candidates.size < overflow:
                order = np.argsort(scores[active_cached], kind="stable")
                candidates = np.concatenate([candidates, active_cached[order[: overflow - candidates.size]]])
            cached[candidates[np.argsort(scores[candidates], kind="stable")[:overflow]]] = False
        steps.append((hits, misses, cached.copy()))
    return steps


@st.composite
def eviction_cases(draw):
    n_units = draw(st.integers(1, 12))
    n_tokens = draw(st.integers(1, 10))
    capacity = draw(st.integers(0, n_units + 2))
    activity = draw(hnp.arrays(bool, (n_tokens, n_units)))
    return capacity, activity


@pytest.mark.parametrize("policy", ["lru", "lfu", "belady"])
@settings(max_examples=150, deadline=None)
@given(case=eviction_cases())
@example(case=(0, np.ones((3, 4), bool)))  # capacity 0
@example(case=(6, np.eye(5, 4, dtype=bool) | np.eye(5, 4, k=1, dtype=bool)))  # capacity >= n_units
@example(case=(2, np.array([[1, 1, 1, 0, 0], [0, 1, 1, 1, 1], [1, 0, 1, 1, 0]], bool)))  # capacity < active
def test_eviction_matches_stable_argsort_reference(policy, case):
    """Linear-time eviction picks the same victims as the stable argsort on (score, index)."""
    capacity, activity = case
    cache = build_cache(policy, activity.shape[1], capacity)
    if policy == "belady":
        cache.set_future(activity)
    for active, (hits, misses, cached) in zip(activity, reference_eviction(policy, capacity, activity)):
        assert cache.process_token(active) == (hits, misses)
        np.testing.assert_array_equal(cache.cached_mask(), cached)
