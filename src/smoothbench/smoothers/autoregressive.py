"""Autoregressive in-sample smoother (ARI).

Fits AR(order) with intercept by conditional least squares to the
``differences``-times differenced series; the smoothed value at t is the
one-step in-sample fitted value.  The first order+differences points, which a
causal fit leaves undefined, are taken from the same fit applied to the
time-reversed series so the output keeps the input length.
"""
from __future__ import annotations

import numpy as np


def _ar_fitted(z: np.ndarray, order: int) -> np.ndarray:
    """One-step fitted values of an AR(order)+intercept fit; NaN before t=order."""
    m = len(z)
    design = np.empty((m - order, order + 1))
    design[:, 0] = 1.0
    for lag in range(1, order + 1):
        design[:, lag] = z[order - lag : m - lag]
    coef, *_ = np.linalg.lstsq(design, z[order:], rcond=None)
    fitted = np.full(m, np.nan)
    fitted[order:] = design @ coef
    return fitted


def _forward_fitted(x: np.ndarray, order: int, differences: int) -> np.ndarray:
    """Fitted series with NaN in the first order+differences slots."""
    n = len(x)
    z = np.diff(x, n=differences) if differences else x
    fitted_z = _ar_fitted(z, order)
    out = np.full(n, np.nan)
    if differences == 0:
        out[order:] = fitted_z[order:]
    else:
        # z[t] = x[t+1] - x[t] so the prediction of x[t+1] uses observed x[t]
        out[order + 1 :] = x[order : n - 1] + fitted_z[order:]
    return out


def ar_smoother(x: np.ndarray, order: int, differences: int) -> np.ndarray:
    n = len(x)
    head = order + differences
    out = _forward_fitted(x, order, differences)
    backward = _forward_fitted(x[::-1], order, differences)
    for t in range(head):
        out[t] = backward[n - 1 - t]
    return out
