"""Penalized regression spline smoother, additive-model style (GAM).

A cubic B-spline basis of dimension ``basis_dim`` over the sample index is
fitted by penalized least squares with a second-difference coefficient
penalty (identity link, Gaussian errors).  With ``auto_penalty`` set the
penalty weight is chosen by generalized cross-validation on a log10 grid,
which removes the remaining user tuning and makes the method effectively
non-parametric.

The design matrix comes from the Cox-de Boor recursion in numpy, with the
order of operations of de Boor, *A Practical Guide to Splines* (1978), the
algorithm ``scipy.interpolate.BSpline.design_matrix`` runs; the two agree bit
for bit, so GAM loads no ``scipy.interpolate``.

The smoother takes one series (T,) or a stack (B, T) and fits each row on its
own.  GCV scoring uses a cached generalized eigendecomposition: after a
one-off O(basis_dim^3) factorization per (length, basis_dim) pair, each row
costs a few O(basis_dim^2) products, and the scores of all rows x candidates
of a grid round are computed as one (B, C, basis_dim) array.  Every score is
bit for bit the one a row-by-row scan would compute: the per-candidate dot
products are BLAS dots on each (row, candidate) pair, and the scalar powers
stay scalar (numpy's vectorized ``**`` rounds differently).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

GCV_LOG10_RANGE = (-4.0, 4.0)


def _cubic_design(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Dense cubic B-spline design at ``x`` (inside the knot span), by Cox-de Boor.

    Each point's interval ``ell`` has knots[ell] <= x < knots[ell + 1] (the
    last interval is closed).  The recursion runs de Boor's order of
    operations on all points at once, so every value is bit for bit the one
    ``scipy.interpolate.BSpline.design_matrix`` gives.
    """
    basis_dim = len(knots) - 4
    ell = np.clip(np.searchsorted(knots, x, "right") - 1, 3, basis_dim - 1)
    h = np.zeros((len(x), 4))
    h[:, 0] = 1.0
    for j in range(1, 4):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            xb, xa = knots[ell + m], knots[ell + m - j]
            same = xb == xa
            with np.errstate(divide="ignore", invalid="ignore"):
                w = hh[:, m - 1] / (xb - xa)
            h[:, m - 1] = np.where(same, h[:, m - 1], h[:, m - 1] + w * (xb - x))
            h[:, m] = np.where(same, 0.0, w * (x - xa))
    design = np.zeros((len(x), basis_dim))
    design[np.arange(len(x))[:, None], ell[:, None] + np.arange(-3, 1)] = h
    return design


@lru_cache(maxsize=64)
def _gam_operators(n: int, basis_dim: int):
    """Design matrix, its Gram matrix and the coefficient penalty (cached)."""
    x = np.arange(n, dtype=float)
    if basis_dim == 4:
        interior = np.empty(0)
    else:
        interior = np.linspace(0.0, n - 1.0, basis_dim - 2)[1:-1]
    knots = np.concatenate((np.zeros(4), interior, np.full(4, n - 1.0)))
    design = _cubic_design(x, knots)
    diff2 = np.diff(np.eye(basis_dim), n=2, axis=0)
    return design, design.T @ design, diff2.T @ diff2


@lru_cache(maxsize=64)
def _gcv_factorization(n: int, basis_dim: int):
    """Cholesky of the Gram matrix and eigensystem of L^-1 P L^-T.

    The Gram matrix is positive definite whenever n >= basis_dim, which
    ``required_length`` guarantees.
    """
    # scipy.linalg loads on first use: only spl and gam with auto_penalty import it
    from scipy.linalg import solve_triangular

    _, gram, penalty = _gam_operators(n, basis_dim)
    chol = np.linalg.cholesky(gram)
    half = solve_triangular(chol, penalty, lower=True)
    m = solve_triangular(chol, half.T, lower=True)
    eigvals, eigvecs = np.linalg.eigh((m + m.T) / 2.0)
    return chol, np.clip(eigvals, 0.0, None), eigvecs


def _gcv_log10_penalties(scores: Callable[[np.ndarray], np.ndarray], rows: int) -> np.ndarray:
    """Per-row GCV grid search: 17 log10 candidates, then two 9-point refinements.

    ``scores`` maps a (rows, C) array of candidates to their (rows, C) GCV
    scores; each row keeps the first candidate of least score.
    """
    lo, hi = GCV_LOG10_RANGE
    every = np.arange(rows)
    cands = np.tile(np.linspace(lo, hi, 17), (rows, 1))
    best = cands[every, np.argmin(scores(cands), axis=1)]
    half_width = (hi - lo) / 16.0
    for _ in range(2):
        cands = np.clip(best[:, None] + np.linspace(-half_width, half_width, 9), lo, hi)
        best = cands[every, np.argmin(scores(cands), axis=1)]
        half_width /= 4.0
    return best


def _eigen_scores(rows, rhs, fact, n):
    """GCV scorer over the eigenbasis: shrinkage 1 / (1 + lam * eigval) per component."""
    # scipy.linalg loads on first use: only spl and gam with auto_penalty import it
    from scipy.linalg import solve_triangular

    chol, eigvals, eigvecs = fact
    d = np.array([eigvecs.T @ solve_triangular(chol, b, lower=True) for b in rhs])
    d2 = (d * d)[:, None, :, None]
    yty = np.array([float(y @ y) for y in rows])[:, None]

    def scores(cands: np.ndarray) -> np.ndarray:
        lam = np.array([10.0**c for c in cands.flat]).reshape(cands.shape)
        shrink = 1.0 / (1.0 + lam[..., None] * eigvals)
        # (1, k) @ (k, 1) per (row, candidate) is one BLAS dot, as d2 @ shrink
        fit = np.matmul(shrink[..., None, :], d2)[..., 0, 0]
        fit2 = np.matmul((shrink * shrink)[..., None, :], d2)[..., 0, 0]
        rss = yty - 2.0 * fit + fit2
        denom = n - shrink.sum(axis=-1)
        denom_sq = np.array([x**2 for x in denom.ravel().tolist()]).reshape(denom.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = n * np.maximum(rss, 0.0) / denom_sq
        return np.where(denom < 1e-8, np.inf, score)

    return scores


def gam_smoother(
    y: np.ndarray, basis_dim: int, log10_penalty: float, family: int, auto_penalty: int
) -> np.ndarray:
    """Penalized-spline smooth of one series (T,) or of each row of a stack (B, T)."""
    rows = np.atleast_2d(y)
    n = rows.shape[1]
    design, gram, penalty = _gam_operators(n, basis_dim)
    rhs = [design.T @ row for row in rows]
    if auto_penalty:
        scores = _eigen_scores(rows, rhs, _gcv_factorization(n, basis_dim), n)
        lams = [10.0**best for best in _gcv_log10_penalties(scores, len(rows)).tolist()]
    else:
        lams = [10.0**log10_penalty] * len(rows)
    out = np.array([design @ np.linalg.solve(gram + lam * penalty, b) for lam, b in zip(lams, rhs)])
    return out.reshape(np.shape(y))


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
