"""Locally weighted quadratic regression with tricube weights (POL)."""
from __future__ import annotations

import math

import numpy as np

from .windows import (
    batched_local_polyfit,
    knn_starts,
    local_design,
    local_polyfit_rows,
    window_offsets,
)


def _geometry(n: int, span: float):
    # at least degree+2 points so the farthest (zero-weight) neighbour still
    # leaves a determined quadratic fit
    k = max(4, min(n, math.ceil(span * n)))
    starts = knn_starts(n, k)
    _, offsets = window_offsets(starts, k)
    dist = np.abs(offsets).astype(float)
    dmax = dist.max(axis=1, keepdims=True)
    u = dist / dmax
    weights = np.clip(1.0 - u**3, 0.0, None) ** 3
    return k, starts, weights


def local_quadratic(y: np.ndarray, span: float) -> np.ndarray:
    k, starts, weights = _geometry(len(y), span)
    local = local_design(starts, k, 2, weights=weights)
    return batched_local_polyfit(y[local.cols], local)


def local_quadratic_operator(n: int, span: float) -> np.ndarray:
    """Dense equivalent-kernel matrix (weights depend on geometry only)."""
    k, starts, weights = _geometry(n, span)
    return local_polyfit_rows(starts, k, 2, n, weights=weights)
