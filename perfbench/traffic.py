"""Seeded request streams, one per workload, generated by the benchmark itself.

The inputs depend only on the seed and on the constants below, never on
``repro`` code, so a change to the program under test cannot change what it
is asked to do.  Each stream is an endless iterator; a run takes requests
from it until its time is up.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class Request:
    rid: str
    prompt: Tuple[int, ...]
    max_new_tokens: int
    #: When an open-loop request is due, in seconds after the phase starts.
    due_s: float = 0.0


def _tokens(rng: np.random.Generator, vocab: int, n: int) -> Tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(1, vocab, size=n))  # 0 is the pad id


def _lognormal_int(rng: np.random.Generator, median: float, sigma: float, lo: int, hi: int) -> int:
    return int(np.clip(round(median * float(np.exp(sigma * rng.standard_normal()))), lo, hi))


# decode-b1: short unshared prompts of DECODE_PROMPT tokens (shorter than one
# prefix-cache block, so the cache never matches) and long ~128-token decodes.
DECODE_VOCAB, DECODE_PROMPT = 1024, 8


def decode_requests(seed: int) -> Iterator[Request]:
    rng = np.random.default_rng([seed, 2])
    index = 0
    while True:
        prompt = _tokens(rng, DECODE_VOCAB, DECODE_PROMPT)
        yield Request(f"decode-{index}", prompt, int(rng.integers(120, 137)))
        index += 1


# burst-batch: bursts of 16 requests due together, one burst every
# BURST_INTERVAL_S (a fixed rate that keeps the scheduler ~40% busy, so most
# of a burst finds free slots and TTFT is one batched admission);
# 8 tenants share 16-token heads; prompt and decode lengths are log-normal
# with a median of 24 tokens.
BURST_VOCAB, BURST_TENANTS, BURST_HEAD, BURST_SIZE = 256, 8, 16, 16
BURST_INTERVAL_S = 0.5


def burst_requests(seed: int) -> Iterator[Request]:
    rng = np.random.default_rng([seed, 3])
    heads = [_tokens(rng, BURST_VOCAB, BURST_HEAD) for _ in range(BURST_TENANTS)]
    index = 0
    while True:
        due = (index // BURST_SIZE) * BURST_INTERVAL_S
        prompt_len = _lognormal_int(rng, 24.0, 0.4, BURST_HEAD + 1, 64)
        head = heads[int(rng.integers(BURST_TENANTS))]
        prompt = head + _tokens(rng, BURST_VOCAB, prompt_len - BURST_HEAD)
        yield Request(f"burst-{index}", prompt, _lognormal_int(rng, 24.0, 0.5, 4, 60), due)
        index += 1


# sim-phi3med: the seed picks one of SIM_TRACE_SEEDS synthetic activation
# traces, whose simulated statistics are pinned in sim_golden.json.
SIM_TRACE_SEEDS = 8


def sim_trace_seed(seed: int) -> int:
    return seed % SIM_TRACE_SEEDS
