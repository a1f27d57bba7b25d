"""Local-level (random walk plus noise) Kalman smoother (KAL).

The state model is ``x_t = x_{t-1} + w_t`` observed through
``y_t = x_t + v_t`` with process variance q and observation variance r.
Both variances are fitted internally by maximizing the Gaussian
prediction-error likelihood on a log10 grid refined by coordinate descent, so
the method exposes no user parameters.  The reported series is the RTS
smoother output under the fitted variances.

A variance floor of 1e-9 times the sample variance keeps the likelihood
proper on near-constant input.
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateLikelihood

_LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR_FACTOR = 1e-9


def _loglik_grid(y: np.ndarray, qs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Prediction-error log likelihood for each (q, r) pair (vectorized)."""
    mean = np.full_like(qs, y[0])
    var = rs.copy()
    ll = np.zeros_like(qs)
    for t in range(1, len(y)):
        pred_var = var + qs
        s = pred_var + rs
        innov = y[t] - mean
        ll -= 0.5 * (_LOG_2PI + np.log(s) + innov * innov / s)
        gain = pred_var / s
        mean = mean + gain * innov
        var = (1.0 - gain) * pred_var
    return ll


def _rts_smooth(y: np.ndarray, q: float, r: float) -> np.ndarray:
    n = len(y)
    mf = np.empty(n)
    pf = np.empty(n)
    mf[0] = y[0]
    pf[0] = r
    for t in range(1, n):
        pred_var = pf[t - 1] + q
        s = pred_var + r
        gain = pred_var / s
        mf[t] = mf[t - 1] + gain * (y[t] - mf[t - 1])
        pf[t] = (1.0 - gain) * pred_var
    xs = np.empty(n)
    xs[n - 1] = mf[n - 1]
    for t in range(n - 2, -1, -1):
        pred_var = pf[t] + q
        c = pf[t] / pred_var
        xs[t] = mf[t] + c * (xs[t + 1] - mf[t])
    return xs


def fit_kalman_local_level(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Fit (q, r) by maximum likelihood and return (smoothed, q, r)."""
    sample_var = float(np.var(y))
    if sample_var <= 0.0:
        floor = 1e-30
        return np.asarray(y, dtype=float).copy(), floor, floor
    floor = VARIANCE_FLOOR_FACTOR * sample_var
    base = np.log10(sample_var)
    lo, hi = base - 9.0, base + 3.0

    # coarse grid over both exponents
    exps = base + np.linspace(-8.0, 2.0, 11)
    lq, lr = np.meshgrid(exps, exps, indexing="ij")
    ll = _loglik_grid(y, 10.0**lq.ravel(), 10.0**lr.ravel())
    best = int(np.argmax(ll))
    log_q, log_r = float(lq.ravel()[best]), float(lr.ravel()[best])

    # coordinate descent with shrinking 1-D grids
    half_width = 1.0
    for _ in range(3):
        for which in (0, 1):
            center = log_q if which == 0 else log_r
            cand = np.clip(center + np.linspace(-half_width, half_width, 9), lo, hi)
            if which == 0:
                lls = _loglik_grid(y, 10.0**cand, np.full_like(cand, 10.0**log_r))
            else:
                lls = _loglik_grid(y, np.full_like(cand, 10.0**log_q), 10.0**cand)
            pick = int(np.argmax(lls))
            if which == 0:
                log_q = float(cand[pick])
            else:
                log_r = float(cand[pick])
        half_width *= 0.4

    q = max(10.0**log_q, floor)
    r = max(10.0**log_r, floor)
    smoothed = _rts_smooth(y, q, r)
    if not np.all(np.isfinite(smoothed)):
        raise DegenerateLikelihood("Kalman smoothing produced non-finite values")
    return smoothed, q, r
