"""Nearest-rank order statistics for lap times.

Nearest rank (no interpolation) so every reported number is a lap that
actually ran, and so a 1-lap smoke run has well-defined quartiles.  Pure
Python on purpose (``repro.serve.nearest_rank_percentile`` is the numpy
twin): the parent command and ``compare`` run without numpy or ``repro``.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` by nearest rank (1-based ceil)."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    xs = sorted(values)
    rank = math.ceil(p / 100.0 * len(xs))
    return xs[min(max(rank, 1), len(xs)) - 1]


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 50.0)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and sample count."""
    return {
        "median": median(values),
        "q1": nearest_rank(values, 25.0),
        "q3": nearest_rank(values, 75.0),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def iqr_frac(summary: Dict[str, float]) -> float:
    """Inter-quartile spread as a share of the median (0 for a bare value)."""
    if not summary.get("median"):
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])
