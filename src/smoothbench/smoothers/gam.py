"""Penalized regression spline smoother, additive-model style (GAM).

A cubic B-spline basis of dimension ``basis_dim`` over the sample index is
fitted by penalized least squares with a second-difference coefficient
penalty (identity link, Gaussian errors).  With ``auto_penalty`` set the
penalty weight is chosen by generalized cross-validation on a log10 grid,
which removes the remaining user tuning and makes the method effectively
non-parametric.

GCV scoring uses a cached generalized eigendecomposition, so scanning the
penalty grid costs O(basis_dim) per candidate after a one-off O(basis_dim^3)
factorization per (length, basis_dim) pair.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import solve_triangular

GCV_LOG10_RANGE = (-4.0, 4.0)


@lru_cache(maxsize=64)
def _gam_operators(n: int, basis_dim: int):
    """Design matrix, its Gram matrix and the coefficient penalty (cached)."""
    x = np.arange(n, dtype=float)
    if basis_dim == 4:
        interior = np.empty(0)
    else:
        interior = np.linspace(0.0, n - 1.0, basis_dim - 2)[1:-1]
    knots = np.concatenate((np.zeros(4), interior, np.full(4, n - 1.0)))
    design = BSpline.design_matrix(x, knots, 3).toarray()
    diff2 = np.diff(np.eye(basis_dim), n=2, axis=0)
    return design, design.T @ design, diff2.T @ diff2


@lru_cache(maxsize=64)
def _gcv_factorization(n: int, basis_dim: int):
    """Cholesky of the Gram matrix and eigensystem of L^-1 P L^-T (or None)."""
    _, gram, penalty = _gam_operators(n, basis_dim)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    half = solve_triangular(chol, penalty, lower=True)
    m = solve_triangular(chol, half.T, lower=True)
    eigvals, eigvecs = np.linalg.eigh((m + m.T) / 2.0)
    return chol, np.clip(eigvals, 0.0, None), eigvecs


def _gcv_penalty(y, design, gram, penalty, rhs, n, basis_dim) -> float:
    fact = _gcv_factorization(n, basis_dim)
    if fact is not None:
        chol, eigvals, eigvecs = fact
        b_tilde = solve_triangular(chol, rhs, lower=True)
        d = eigvecs.T @ b_tilde
        d2 = d * d
        yty = float(y @ y)

        def score(log_lam: float) -> float:
            shrink = 1.0 / (1.0 + 10.0**log_lam * eigvals)
            rss = yty - 2.0 * float(d2 @ shrink) + float(d2 @ (shrink * shrink))
            trace_hat = float(shrink.sum())
            denom = n - trace_hat
            if denom < 1e-8:
                return np.inf
            return n * max(rss, 0.0) / denom**2

    else:

        def score(log_lam: float) -> float:
            lam = 10.0**log_lam
            system = gram + lam * penalty
            beta = np.linalg.solve(system, rhs)
            resid = y - design @ beta
            trace_hat = float(np.trace(np.linalg.solve(system, gram)))
            denom = n - trace_hat
            if denom < 1e-8:
                return np.inf
            return n * float(resid @ resid) / denom**2

    lo, hi = GCV_LOG10_RANGE
    cands = np.linspace(lo, hi, 17)
    scores = [score(c) for c in cands]
    best = float(cands[int(np.argmin(scores))])
    half_width = (hi - lo) / 16.0
    for _ in range(2):
        cands = np.clip(best + np.linspace(-half_width, half_width, 9), lo, hi)
        scores = [score(c) for c in cands]
        best = float(cands[int(np.argmin(scores))])
        half_width /= 4.0
    return 10.0**best


def gam_smoother(
    y: np.ndarray, basis_dim: int, log10_penalty: float, family: int, auto_penalty: int
) -> np.ndarray:
    n = len(y)
    design, gram, penalty = _gam_operators(n, basis_dim)
    rhs = design.T @ y
    if auto_penalty:
        lam = _gcv_penalty(y, design, gram, penalty, rhs, n, basis_dim)
    else:
        lam = 10.0**log10_penalty
    beta = np.linalg.solve(gram + lam * penalty, rhs)
    return design @ beta


def gam_matrix_operator(
    n: int, basis_dim: int, log10_penalty: float, family: int, auto_penalty: int
) -> "np.ndarray | None":
    """Dense smoother matrix B (B'B + lam P)^-1 B' for a fixed penalty.

    None with ``auto_penalty`` set: the GCV-chosen penalty depends on the data.
    """
    if auto_penalty:
        return None
    design, gram, penalty = _gam_operators(n, basis_dim)
    lam = 10.0**log10_penalty
    inner = np.linalg.solve(gram + lam * penalty, design.T)
    return design @ inner
