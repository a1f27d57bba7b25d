"""Variable-span super smoother (SUP).

Classic three-pass scheme on index-ordered data: local linear fits at three
fixed spans (tweeter/midrange/woofer), leave-one-out absolute residuals
smoothed at the midrange span, per-point selection of the best span, optional
bass enhancement pulling the selected spans toward the woofer, smoothing of
the span estimates, and a final blend between the bracketing primary fits.

The single tuning knob is the bass control in [0, 10]: 0 leaves the selected
spans untouched, 10 forces maximal smoothing.  Local linear fits on the
contiguous nearest-neighbour windows reduce to running sums, so one smoothing
pass costs O(n).

Everything before the bass enhancement reads no parameter (Friedman, "A
variable span smoother", 1984): :func:`bass_free_stage` computes it, and
``super_smoother`` takes it ready-made, so that a GA that scores many bass
values on one LOOCV deletion stack computes that stage once.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .windows import knn_starts, read_only, window_sums

PRIMARY_SPANS = (0.05, 0.2, 0.5)
_TINY = 1e-30


def _span_points(span: float, n: int) -> int:
    return int(np.clip(round(span * n), 3, n))


@lru_cache(maxsize=512)
def _window_geometry(n: int, k: int):
    """Data-independent moments of the contiguous k-point windows."""
    lo = knn_starts(n, k)
    hi = lo + k
    x = np.arange(n, dtype=float)
    a, b = lo.astype(float), (hi - 1).astype(float)
    s1 = (a + b) * k / 2.0
    s2 = (b * (b + 1) * (2 * b + 1) - (a - 1) * a * (2 * a - 1)) / 6.0
    sxx = np.maximum(s2 - s1 * s1 / k, _TINY)
    mean_x = s1 / k
    centered = x - mean_x
    hat = 1.0 / k + centered**2 / sxx
    return lo, hi, s1, sxx, centered, hat


def _local_linear(y: np.ndarray, k: int, want_loo: bool = False):
    """Local linear fit over contiguous k-point windows via running sums.

    Works along the last axis of ``y``.  Returns the fitted values, plus
    leave-one-out residuals when asked (from the closed-form hat diagonal of
    the within-window regression).
    """
    n = y.shape[-1]
    lo, hi, s1, sxx, centered, hat = _window_geometry(n, k)
    x = np.arange(n, dtype=float)
    sy = window_sums(y, lo, hi)
    sxy = window_sums(x * y, lo, hi)
    slope = (sxy - s1 * sy / k) / sxx
    fitted = sy / k + slope * centered
    if not want_loo:
        return fitted
    loo = (y - fitted) / np.maximum(1.0 - hat, 1e-6)
    return fitted, loo


class BassFreeStage(NamedTuple):
    """The part of a super smooth that no bass value changes, as read-only arrays."""

    fits: np.ndarray  # (3, ..., T): the primary fits, axis 0 over PRIMARY_SPANS
    resids: np.ndarray  # (3, ..., T): their LOO absolute residuals, smoothed at the midrange
    best: np.ndarray  # (..., T): index of the span with the smallest smoothed residual
    spans: np.ndarray  # (..., T): that span


def bass_free_stage(y: np.ndarray) -> BassFreeStage:
    """The primary fits, their smoothed residuals and the argmin spans of ``y``."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    ks = [_span_points(s, n) for s in PRIMARY_SPANS]
    mid_k = ks[1]

    fits = []
    abs_resids = []
    for k in ks:
        fitted, loo = _local_linear(y, k, want_loo=True)
        fits.append(fitted)
        abs_resids.append(np.abs(loo))

    smoothed_resids = np.array(
        [np.maximum(_local_linear(r, mid_k), 0.0) for r in abs_resids]
    )
    best = np.argmin(smoothed_resids, axis=0)
    spans = np.array(PRIMARY_SPANS)[best]
    return BassFreeStage(*map(read_only, (np.array(fits), smoothed_resids, best, spans)))


def super_smoother(y: np.ndarray, bass: float, stage: "BassFreeStage | None" = None) -> np.ndarray:
    """Super smoother of one series (T,) or a stack (B, T) of series.

    ``stage``, when given, is ``bass_free_stage(y)``, computed earlier.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    mid_k = _span_points(PRIMARY_SPANS[1], n)
    stacked, smoothed_resids, best, spans = bass_free_stage(y) if stage is None else stage

    if bass > 0.0:
        spans = spans.copy()  # the stage's spans are read-only
        woofer_resid = smoothed_resids[-1]
        best_resid = np.take_along_axis(smoothed_resids, best[None], axis=0)[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = best_resid / woofer_resid
        enhance = (spans < PRIMARY_SPANS[-1]) & (woofer_resid > _TINY) & (ratio < 1.0)
        spans[enhance] += (PRIMARY_SPANS[-1] - spans[enhance]) * ratio[enhance] ** (
            10.0 - bass
        )

    spans = np.clip(_local_linear(spans, mid_k), PRIMARY_SPANS[0], PRIMARY_SPANS[-1])

    # blend the two primary fits bracketing each smoothed span estimate
    grid = np.array(PRIMARY_SPANS)
    seg = np.clip(np.searchsorted(grid, spans, side="right") - 1, 0, len(grid) - 2)
    frac = (spans - grid[seg]) / (grid[seg + 1] - grid[seg])
    below = np.take_along_axis(stacked, seg[None], axis=0)[0]
    above = np.take_along_axis(stacked, seg[None] + 1, axis=0)[0]
    return (1.0 - frac) * below + frac * above
