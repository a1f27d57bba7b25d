"""Nadaraya-Watson kernel regression with a Gaussian kernel (KER).

The weight of point j in the smooth at point i depends on the lag i - j
alone: each of the 2n - 1 lags is exponentiated once, and the n x n weight
matrix is copied out of that one row.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _gaussian_weights(n: int, bandwidth: float) -> np.ndarray:
    u = np.arange(-(n - 1), n, dtype=float) / bandwidth
    row = np.exp(-0.5 * u * u)  # row[d + n - 1] is the weight at lag d
    # entry (i, j) is row[i - j + n - 1]: row i is window n - 1 - i of the reversed row
    return sliding_window_view(row[::-1], n)[::-1].copy()


def kernel_regression(y: np.ndarray, bandwidth: float) -> np.ndarray:
    return kernel_parts(y, bandwidth)[0]


def kernel_parts(
    y: np.ndarray, bandwidth: float
) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """The smooth S @ y, diag(S) and a builder of the dense S, from one weight matrix.

    S is the row-normalized Gaussian weight matrix.
    """
    k = _gaussian_weights(len(y), bandwidth)
    s = k.sum(axis=1)
    return (k @ y) / s, np.diagonal(k) / s, lambda: k / s[:, None]
