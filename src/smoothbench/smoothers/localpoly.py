"""Locally weighted quadratic regression with tricube weights (POL).

Every window holds k = ceil(span * n) points (at least 4), shifted inward at
the ends, and point i sits at slot ``i - starts[i]`` of its window.  The
tricube weights, design, normal matrix and equivalent-kernel row of a window
depend on that slot alone, so the k slots are the window shapes of one
``local_design`` and every window gathers its slot's.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .windows import (
    batched_local_polyfit,
    equivalent_kernel,
    knn_starts,
    local_design,
    scatter_rows,
)


def _slot_design(n: int, span: float):
    """(window columns of each point, its slot, the design of the k slots)."""
    # at least degree+2 points so the farthest (zero-weight) neighbour still
    # leaves a determined quadratic fit
    k = max(4, min(n, math.ceil(span * n)))
    # slot r's offsets; slots 0 and k-1 reach -(k-1) and k-1, as the two end
    # windows do, so the design keeps the scale of the full set of windows
    offsets = np.arange(k)[None, :] - np.arange(k)[:, None]
    dist = np.abs(offsets).astype(float)
    u = dist / dist.max(axis=1, keepdims=True)
    weights = np.clip(1.0 - u**3, 0.0, None) ** 3
    starts = knn_starts(n, k)
    return starts[:, None] + np.arange(k), np.arange(n) - starts, local_design(offsets, 2, weights)


def local_quadratic(y: np.ndarray, span: float) -> np.ndarray:
    cols, slot, local = _slot_design(len(y), span)
    return batched_local_polyfit(y[cols], local, slot)


def local_quadratic_parts(
    y: np.ndarray, span: float
) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """The smooth S @ y, diag(S) and a builder of the dense S, from one design.

    S is the equivalent-kernel matrix (its weights depend on geometry only);
    the smooth equals :func:`local_quadratic` bit for bit, and S is formed
    only when the builder is called.
    """
    n = len(y)
    cols, slot, local = _slot_design(n, span)
    rows = equivalent_kernel(local)  # one row per slot
    diagonal = rows[slot, slot]  # S[i, i] sits at window slot i - start
    base = batched_local_polyfit(y[cols], local, slot)
    # the builder holds the slot rows and the windows, not the design
    return base, diagonal, lambda: scatter_rows(cols, rows[slot], n)
