"""Nadaraya-Watson kernel regression with a Gaussian kernel (KER)."""
from __future__ import annotations

from typing import Callable

import numpy as np


def _gaussian_weights(n: int, bandwidth: float) -> np.ndarray:
    idx = np.arange(n, dtype=float)
    u = (idx[:, None] - idx[None, :]) / bandwidth
    return np.exp(-0.5 * u * u)


def kernel_operator(n: int, bandwidth: float) -> np.ndarray:
    """Row-normalized Gaussian weight matrix."""
    k = _gaussian_weights(n, bandwidth)
    return k / k.sum(axis=1, keepdims=True)


def kernel_regression(y: np.ndarray, bandwidth: float) -> np.ndarray:
    k = _gaussian_weights(len(y), bandwidth)
    return (k @ y) / k.sum(axis=1)


def kernel_parts(
    y: np.ndarray, bandwidth: float
) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """The smooth S @ y, diag(S) and a builder of the dense S, from one weight matrix.

    Each equals :func:`kernel_regression` or :func:`kernel_operator` bit for bit.
    """
    k = _gaussian_weights(len(y), bandwidth)
    s = k.sum(axis=1)
    return (k @ y) / s, np.diagonal(k) / s, lambda: k / s[:, None]
