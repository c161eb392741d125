"""Order statistics shared by the workloads, the runner and the steadiness tool."""

from __future__ import annotations

import statistics
from statistics import median  # noqa: F401  (shared by the runner and the tools)

# A tail needs at least this many samples beyond it to mean anything; with
# fewer than four times as many samples in all, no tail is reported.
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40


def _rank(pct: int, n: int) -> int:
    """ceil(pct * n / 100), in exact integer arithmetic."""
    return -(-pct * n // 100)


def nearest_rank(sorted_values, pct: int):
    """The pct-th percentile by the nearest-rank rule (1 <= pct <= 100)."""
    return sorted_values[max(_rank(pct, len(sorted_values)), 1) - 1]


def tail_percentile(n_samples: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it.

    By the nearest-rank rule the pct-th percentile of n samples has
    ``n - ceil(pct * n / 100)`` samples above its rank.  Returns None under
    forty samples, where such a percentile would be no tail.
    """
    if n_samples < TAIL_MIN_SAMPLES:
        return None
    for pct in range(99, 49, -1):
        if n_samples - _rank(pct, n_samples) >= TAIL_BEYOND:
            return pct
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
