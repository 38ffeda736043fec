"""The benchmark's own arithmetic: percentiles, latency summaries, self time.

Everything here is pure Python over plain lists so it can be tested without
running a workload (see ``test_perfbench.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

#: Percentiles a tail metric may report, highest first.  The tail is the
#: highest one that leaves at least :data:`MIN_BEYOND` samples beyond it; the
#: median is the floor, reported even for tiny samples.
TAIL_LADDER: Tuple[float, ...] = (95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the ``pct``-th percentile."""
    return int(math.floor(n * (100.0 - pct) / 100.0 + 1e-9))


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER, min_beyond: int = MIN_BEYOND) -> float:
    """The highest percentile of ``ladder`` with ``min_beyond`` samples beyond it.

    Falls back to the last (lowest) rung, the median, when ``n`` supports
    nothing higher.
    """
    for pct in ladder:
        if samples_beyond(n, pct) >= min_beyond:
            return pct
    return ladder[-1]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, int(math.ceil(pct / 100.0 * len(ordered) - 1e-9)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail percentile and sample count of one latency sample."""
    n = len(values)
    pct = tail_percentile(n)
    return {"n": n, "p50": percentile(values, 50.0), "tail_pct": pct, "tail": percentile(values, pct)}


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` rows are ``(name, start, end, parent, request_id)`` where
    ``parent`` is the index of the enclosing span or ``-1``.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for row in spans:
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    return [
        (row[2] - row[1]) - covered(children.get(i, ()), row[1], row[2])
        for i, row in enumerate(spans)
    ]
