"""Latency accounting: distributions of simulated-time durations."""

from __future__ import annotations

import math
from typing import Dict, Sequence


def percentile(samples: Sequence[float], p: float,
               presorted: bool = False) -> float:
    """Nearest-rank percentile; p in [0, 100].

    Nearest-rank is ``ceil(p/100 * n)`` -- the smallest sample with at
    least ``p`` percent of the distribution at or below it.  (A previous
    version used ``round()``, whose banker's rounding picked rank 22
    instead of 23 for p90 of 25 samples.)

    ``presorted=True`` skips the sort when the caller already holds an
    ordered list (see :func:`summarize`).
    """
    if not samples:
        raise ValueError("no samples")
    ordered = samples if presorted else sorted(samples)
    if p <= 0:
        return ordered[0]
    if p >= 100:
        return ordered[-1]
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Summary statistics, from one sort of ``samples``."""
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    n = len(ordered)
    return {
        "count": n,
        "mean": sum(ordered) / n,
        "min": ordered[0],
        "p50": percentile(ordered, 50, presorted=True),
        "p90": percentile(ordered, 90, presorted=True),
        "p99": percentile(ordered, 99, presorted=True),
        "max": ordered[-1],
    }
