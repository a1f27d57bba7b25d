"""Cubic smoothing spline on the sample index (Reinsch formulation).

Minimizes ``sum (y_i - f_i)^2 + lam * integral f''(t)^2 dt`` over natural
cubic splines with knots at every sample.  With unit index spacing the
normal system ``(R + lam * Q'Q) gamma = Q'y`` is pentadiagonal and symmetric
positive definite, solved with a banded Cholesky; the fitted values are
``f = y - lam * Q gamma``.
"""
from __future__ import annotations

import numpy as np


def _banded_system(n: int, lam: float) -> np.ndarray:
    # upper banded form of R + lam*Q'Q:
    #   R      = tridiag(1/6, 2/3, 1/6)
    #   Q'Q    = pentadiag(1, -4, 6, -4, 1)
    m = n - 2
    ab = np.zeros((3, m))
    ab[0, 2:] = lam  # second superdiagonal
    ab[1, 1:] = 1.0 / 6.0 - 4.0 * lam  # first superdiagonal
    ab[2, :] = 2.0 / 3.0 + 6.0 * lam  # diagonal
    return ab


def _apply_q(gamma: np.ndarray) -> np.ndarray:
    # (Q gamma)_k = gamma_{k-2} - 2 gamma_{k-1} + gamma_k along the last axis,
    # out-of-range = 0
    padded = np.pad(gamma, [(0, 0)] * (gamma.ndim - 1) + [(2, 2)])
    return padded[..., 2:] - 2.0 * padded[..., 1:-1] + padded[..., :-2]


def smoothing_spline(y: np.ndarray, log10_penalty: float) -> np.ndarray:
    """Fitted values; ``y`` is one series (T,) or a stack (B, T) of series."""
    # scipy.linalg loads on first use: only spl and gam with auto_penalty import it
    from scipy.linalg import solveh_banded

    n = y.shape[-1]
    lam = 10.0**log10_penalty
    # second differences of y (Q'y for unit spacing)
    qty = y[..., :-2] - 2.0 * y[..., 1:-1] + y[..., 2:]
    gamma = solveh_banded(_banded_system(n, lam), qty.T).T
    return y - lam * _apply_q(gamma)
