"""Locally weighted quadratic regression with tricube weights (POL).

Every window holds k = ceil(span * n) points (at least 4), shifted inward at
the ends, and point i sits at slot ``i - starts[i]`` of its window.  The
tricube weights, design, normal matrix and equivalent-kernel row of a window
depend on that slot alone, so they are built once for each of the k slots and
gathered by slot; only the right-hand sides, which hold the data, are formed
per window.  Each stacked sum and solve works on one window at a time, so the
result has the bits of a build over all n windows.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .windows import (
    LocalDesign,
    equivalent_kernel,
    knn_starts,
    local_design,
    scatter_rows,
    window_offsets,
)


def _slot_design(n: int, span: float):
    """(starts, slot of each point, the design of the k window slots)."""
    # at least degree+2 points so the farthest (zero-weight) neighbour still
    # leaves a determined quadratic fit
    k = max(4, min(n, math.ceil(span * n)))
    starts = knn_starts(n, k)
    first, slots = np.zeros(k, dtype=int), np.arange(k)
    # slots 0 and k-1 occur at the two ends, so the offsets keep the scale of
    # the full set of windows
    _, offsets = window_offsets(first, k, slots)
    dist = np.abs(offsets).astype(float)
    dmax = dist.max(axis=1, keepdims=True)
    u = dist / dmax
    weights = np.clip(1.0 - u**3, 0.0, None) ** 3
    local = local_design(first, k, 2, weights=weights, centers=slots)
    return starts, np.arange(n) - starts, local


def _fitted(y: np.ndarray, starts: np.ndarray, slot: np.ndarray, local: LocalDesign):
    """Each window's local quadratic evaluated at its point."""
    cols = starts[:, None] + local.cols[0][None, :]
    rhs = np.einsum("nkp,nk->np", local.weighted[slot], y[cols])
    return np.linalg.solve(local.normal[slot], rhs[:, :, None])[:, 0, 0]


def local_quadratic(y: np.ndarray, span: float) -> np.ndarray:
    return _fitted(y, *_slot_design(len(y), span))


def local_quadratic_parts(
    y: np.ndarray, span: float
) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """The smooth S @ y, diag(S) and a builder of the dense S, from one design.

    S is the equivalent-kernel matrix (its weights depend on geometry only);
    the smooth equals :func:`local_quadratic` bit for bit, and S is formed
    only when the builder is called.
    """
    n = len(y)
    starts, slot, local = _slot_design(n, span)
    rows = equivalent_kernel(local)  # one row per slot
    diagonal = rows[slot, slot]  # S[i, i] sits at window slot i - start
    base = _fitted(y, starts, slot, local)
    # the builder holds the slot rows and the starts, not the design
    return base, diagonal, lambda: scatter_rows(starts, rows[slot], n)
