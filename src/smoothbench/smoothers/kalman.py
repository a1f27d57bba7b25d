"""Local-level (random walk plus noise) Kalman smoother (KAL).

The state model is ``x_t = x_{t-1} + w_t`` observed through
``y_t = x_t + v_t`` with process variance q and observation variance r.
Both variances are fitted internally by maximizing the Gaussian
prediction-error likelihood on a log10 grid refined by coordinate descent, so
the method exposes no user parameters.  The reported series is the RTS
smoother output under the fitted variances.

The fit takes one series (T,) or a stack (B, T) and fits each row on its own.
The filter recursions run once over time on (B, G) arrays of rows x grid
candidates, with elementwise operations only, so each row comes out bit for
bit as it would alone.  The per-row scalars (sample variance, its log10, the
powers of the fixed coordinate and the floors) stay Python scalars, because
numpy's vectorized ``**`` and ``log10`` round differently from the scalar
calls.

A variance floor of 1e-9 times the sample variance keeps the likelihood
proper on near-constant input.
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateLikelihood

_LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR_FACTOR = 1e-9


def _loglik_grid(y: np.ndarray, qs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Prediction-error log likelihood of each row of y (B, T) under each of its
    (q, r) pairs (B, G)."""
    mean = np.repeat(y[:, :1], qs.shape[1], axis=1)
    var = rs.copy()
    ll = np.zeros_like(qs)
    for t in range(1, y.shape[1]):
        pred_var = var + qs
        s = pred_var + rs
        innov = y[:, t : t + 1] - mean
        ll -= 0.5 * (_LOG_2PI + np.log(s) + innov * innov / s)
        gain = pred_var / s
        mean = mean + gain * innov
        var = (1.0 - gain) * pred_var
    return ll


def _rts_smooth(y: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """RTS smoother of each row of y (B, T) under its own variances q, r (B,)."""
    n = y.shape[1]
    mf = np.empty_like(y)
    pf = np.empty_like(y)
    mf[:, 0] = y[:, 0]
    pf[:, 0] = r
    for t in range(1, n):
        pred_var = pf[:, t - 1] + q
        s = pred_var + r
        gain = pred_var / s
        mf[:, t] = mf[:, t - 1] + gain * (y[:, t] - mf[:, t - 1])
        pf[:, t] = (1.0 - gain) * pred_var
    xs = np.empty_like(y)
    xs[:, n - 1] = mf[:, n - 1]
    for t in range(n - 2, -1, -1):
        pred_var = pf[:, t] + q
        c = pf[:, t] / pred_var
        xs[:, t] = mf[:, t] + c * (xs[:, t + 1] - mf[:, t])
    return xs


def _powers(exponents: np.ndarray, width: int) -> np.ndarray:
    """(B, width) array whose row b is 10**exponents[b], taken as a scalar power."""
    return np.repeat(np.array([10.0**x for x in exponents.tolist()])[:, None], width, axis=1)


def _fit_variances(y: np.ndarray, sample_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood log10 (q, r) of each row of y (B, T)."""
    rows = np.arange(len(y))
    base = np.array([np.log10(v) for v in sample_var.tolist()])[:, None]
    lo, hi = base - 9.0, base + 3.0

    # coarse grid over both exponents
    exps = base + np.linspace(-8.0, 2.0, 11)
    lq = np.repeat(exps, 11, axis=1)
    lr = np.tile(exps, (1, 11))
    best = np.argmax(_loglik_grid(y, 10.0**lq, 10.0**lr), axis=1)
    log_q, log_r = lq[rows, best], lr[rows, best]

    # coordinate descent with shrinking 1-D grids
    half_width = 1.0
    for _ in range(3):
        cand = np.clip(log_q[:, None] + np.linspace(-half_width, half_width, 9), lo, hi)
        lls = _loglik_grid(y, 10.0**cand, _powers(log_r, 9))
        log_q = cand[rows, np.argmax(lls, axis=1)]
        cand = np.clip(log_r[:, None] + np.linspace(-half_width, half_width, 9), lo, hi)
        lls = _loglik_grid(y, _powers(log_q, 9), 10.0**cand)
        log_r = cand[rows, np.argmax(lls, axis=1)]
        half_width *= 0.4
    return log_q, log_r


# a fit past the largest double raises; the front door makes it an EvaluationFailure
@np.errstate(over="raise", invalid="raise", divide="raise")
def fit_kalman_local_level(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit (q, r) by maximum likelihood and return (smoothed, q, r).

    For a stack (B, T), q and r hold one fitted variance per row; for one
    series (T,) they are 0-d.
    """
    rows = np.atleast_2d(np.asarray(y, dtype=float))
    sample_var = np.array([float(np.var(row)) for row in rows])
    # a row of zero variance is its own smooth; every other row (NaN too) is fitted
    smoothed = rows.copy()
    q = np.full(len(rows), 1e-30)
    r = np.full(len(rows), 1e-30)
    live = ~(sample_var <= 0.0)
    if live.any():
        log_q, log_r = _fit_variances(rows[live], sample_var[live])
        floor = (VARIANCE_FLOOR_FACTOR * sample_var[live]).tolist()
        q[live] = [max(10.0**x, f) for x, f in zip(log_q.tolist(), floor)]
        r[live] = [max(10.0**x, f) for x, f in zip(log_r.tolist(), floor)]
        smoothed[live] = _rts_smooth(rows[live], q[live], r[live])
        if not np.all(np.isfinite(smoothed)):
            raise DegenerateLikelihood("Kalman smoothing produced non-finite values")
    shape = np.shape(y)
    return smoothed.reshape(shape), q.reshape(shape[:-1]), r.reshape(shape[:-1])
