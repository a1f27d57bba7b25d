"""Moving-average and running-median smoothers (SMA, RRM, TUK)."""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .windows import boundary_windows, clipped_bounds, window_sums

RRM_MAX_PASSES = 50


def simple_moving_average(y: np.ndarray, window: int) -> np.ndarray:
    """Centered mean over a window truncated at the series boundaries.

    ``y`` is one series (T,) or a stack (B, T) of series smoothed independently.
    """
    lo, hi = clipped_bounds(y.shape[-1], window)
    return window_sums(y, lo, hi) / (hi - lo)


def _running_median(y: np.ndarray, window: int) -> np.ndarray:
    """Centered running median along the last axis, windows clipped at the ends."""
    n = y.shape[-1]
    h = window // 2
    out = np.empty(y.shape)
    if n >= window:
        out[..., h : n - h] = np.median(sliding_window_view(y, window, axis=-1), axis=-1)
    for i, lo, hi in boundary_windows(n, h):
        out[..., i] = np.median(y[..., lo:hi], axis=-1)
    return out


def _iterate_to_fixpoint(
    step: Callable[[np.ndarray], np.ndarray], y: np.ndarray, max_passes: int
) -> np.ndarray:
    """Apply the (B, T) map ``step`` to every series until it stops changing.

    ``y`` is one series (T,) or a stack (B, T).  A row leaves the iteration at
    its own fixpoint (or after ``max_passes``), so each row ends exactly as if
    it had been iterated alone.
    """
    cur = np.array(y, dtype=float)
    rows = cur.reshape(-1, cur.shape[-1])  # a view: writes land in cur
    active = np.arange(len(rows))
    for _ in range(max_passes):
        if not active.size:
            break
        before = rows[active]
        nxt = step(before)
        moved = ~np.all(nxt == before, axis=-1)
        rows[active[moved]] = nxt[moved]
        active = active[moved]
    return cur


def repeated_running_median(y: np.ndarray, window: int) -> np.ndarray:
    """Running median re-applied until the series stops changing (capped).

    ``y`` is one series (T,) or a stack (B, T) of series smoothed independently.
    """
    return _iterate_to_fixpoint(lambda rows: _running_median(rows, window), y, RRM_MAX_PASSES)


def _median_of_three(rows: np.ndarray) -> np.ndarray:
    nxt = rows.copy()
    nxt[:, 1:-1] = np.median(sliding_window_view(rows, 3, axis=-1), axis=-1)
    return nxt


def tukey_3r(y: np.ndarray) -> np.ndarray:
    """Running medians of three, endpoints copied, iterated to a fixpoint.

    ``y`` is one series (T,) or a stack (B, T) of series smoothed independently.
    """
    # medians of 3 reach a fixpoint in at most ~n passes; cap defensively
    return _iterate_to_fixpoint(_median_of_three, y, max(np.shape(y)[-1], 8))
