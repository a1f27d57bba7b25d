"""Moving-average and running-median smoothers (SMA, RRM, TUK)."""
from __future__ import annotations

from typing import Callable

import numpy as np

from .windows import clipped_bounds, window_sums

RRM_MAX_PASSES = 50


def simple_moving_average(y: np.ndarray, window: int) -> np.ndarray:
    """Centered mean over a window truncated at the series boundaries.

    ``y`` is one series (T,) or a stack (B, T) of series smoothed independently.
    """
    lo, hi = clipped_bounds(y.shape[-1], window)
    return window_sums(y, lo, hi) / (hi - lo)


def _running_median(y: np.ndarray, window: int, cols: np.ndarray) -> np.ndarray:
    """Centered running median at columns ``cols`` of the last axis, windows clipped at the ends.

    The windows of NaN-free values are gathered into ``window`` slots, padded
    with +inf, and sorted at once.  The median is then ``np.median``'s, bit
    for bit: numpy's sum of the two middle values of an even window, or of the
    middle value of an odd one paired with -0.0 (which adds no bit), over
    their count.
    """
    n = y.shape[-1]
    lo, hi = clipped_bounds(n, window)
    lo, size = lo[cols], hi[cols] - lo[cols]
    slot = np.arange(window)
    gathered = y[..., np.minimum(lo[:, None] + slot, n - 1)]
    gathered[..., slot >= size[:, None]] = np.inf
    gathered.sort(axis=-1)
    odd = size % 2 == 1
    pair = gathered[..., np.arange(len(cols))[:, None], (size[:, None] - 1) // 2 + (0, 1)]
    pair[..., odd, 1] = -0.0
    return np.add.reduce(pair, axis=-1) / (2.0 - odd)


def _iterate_to_fixpoint(
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    y: np.ndarray,
    max_passes: int,
    reach: int,
) -> np.ndarray:
    """Apply the (B, T) map ``step`` to every series until it stops changing.

    ``y`` is one series (T,) or a stack (B, T).  ``step(rows, cols)`` gives
    the next pass at columns ``cols`` only, and its column i reads the inputs
    i - ``reach`` to i + ``reach`` alone.  So after the first pass only the
    columns within ``reach`` of one whose bits changed in a row still
    iterating are recomputed: every other column would come out as it is.  A
    row leaves the iteration at its own fixpoint (or after ``max_passes``), so
    each row ends exactly as if it had been iterated alone.
    """
    cur = np.array(y, dtype=float)
    rows = cur.reshape(-1, cur.shape[-1])  # a view: writes land in cur
    n = rows.shape[-1]
    active = np.arange(len(rows))
    cols = np.arange(n)
    spread = np.arange(-reach, reach + 1)
    for _ in range(max_passes):
        if not active.size:
            break
        before = rows[active]
        nxt, old = step(before, cols), before[:, cols]
        moved = (nxt != old).any(axis=-1)
        active, nxt, old = active[moved], nxt[moved], old[moved]
        rows[active[:, None], cols] = nxt
        changed = cols[(nxt.view(np.int64) != old.view(np.int64)).any(axis=0)]
        near = np.zeros(n, dtype=bool)
        near[np.minimum(np.maximum(changed[:, None] + spread, 0), n - 1)] = True
        cols = near.nonzero()[0]
    return cur


def repeated_running_median(y: np.ndarray, window: int) -> np.ndarray:
    """Running median re-applied until the series stops changing (capped).

    ``y`` is one series (T,) or a stack (B, T) of series smoothed independently.
    """
    return _iterate_to_fixpoint(
        lambda rows, cols: _running_median(rows, window, cols), y, RRM_MAX_PASSES, window // 2
    )


def _median_of_three(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    ends = (cols == 0) | (cols == rows.shape[-1] - 1)
    return np.where(ends, rows[:, cols], _running_median(rows, 3, cols))


def tukey_3r(y: np.ndarray) -> np.ndarray:
    """Running medians of three, endpoints copied, iterated to a fixpoint.

    ``y`` is one series (T,) or a stack (B, T) of series smoothed independently.
    """
    # medians of 3 reach a fixpoint in at most ~n passes; cap defensively
    return _iterate_to_fixpoint(_median_of_three, y, max(np.shape(y)[-1], 8), 1)
