"""Summary statistics over a run's samples."""
from __future__ import annotations

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_SUPPORT = 10  # samples that must lie beyond a reported percentile


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least TAIL_SUPPORT of ``count`` samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if round(count * (100.0 - pct) / 100.0, 6) >= TAIL_SUPPORT:  # 100 - 99.9 is inexact
            return pct
    return None


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]

