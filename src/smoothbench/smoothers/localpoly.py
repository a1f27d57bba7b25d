"""Locally weighted quadratic regression with tricube weights (POL)."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .windows import (
    LocalDesign,
    batched_local_polyfit,
    equivalent_kernel,
    knn_starts,
    local_design,
    scatter_rows,
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


def _design(n: int, span: float) -> LocalDesign:
    k, starts, weights = _geometry(n, span)
    return local_design(starts, k, 2, weights=weights)


def local_quadratic(y: np.ndarray, span: float) -> np.ndarray:
    local = _design(len(y), span)
    return batched_local_polyfit(y[local.cols], local)


def local_quadratic_parts(
    y: np.ndarray, span: float
) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """The smooth S @ y, diag(S) and a builder of the dense S, from one design.

    S is the equivalent-kernel matrix (its weights depend on geometry only);
    the smooth equals :func:`local_quadratic` bit for bit, and S is formed
    only when the builder is called.
    """
    n = len(y)
    local = _design(n, span)
    starts, rows = local.cols[:, 0].copy(), equivalent_kernel(local)
    idx = np.arange(n)
    diagonal = rows[idx, idx - starts]  # S[i, i] sits at window slot i - start
    base = batched_local_polyfit(y[local.cols], local)
    # the builder holds the window rows and a copy of the starts, not the design
    return base, diagonal, lambda: scatter_rows(starts, rows, n)
