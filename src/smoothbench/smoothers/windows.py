"""Windowing and batched local polynomial fits shared by several smoothers.

All smoothers operate on the integer sample index.  Two window families are
used: *clipped* centered windows (truncated at the boundaries, so their size
shrinks near the edges) and *nearest-neighbour* windows (constant size, shifted
inward at the edges).  The batched fit solves every per-window weighted
least-squares problem in one vectorized call; offsets are rescaled to [-1, 1]
to keep the normal equations well conditioned up to degree 6.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def read_only(values: np.ndarray) -> np.ndarray:
    """``values``, marked read-only: for arrays that one call keeps for later calls."""
    values.flags.writeable = False
    return values


def clipped_bounds(n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Start (inclusive) and stop (exclusive) of centered windows clipped to the series."""
    h = w // 2
    idx = np.arange(n)
    return np.maximum(0, idx - h), np.minimum(n, idx + h + 1)


def boundary_windows(n: int, half: int):
    """(point, start, stop) of every clipped window within ``half`` points of an end."""
    lo, hi = clipped_bounds(n, 2 * half + 1)
    for i in range(min(half, n)):
        for j in (i, n - 1 - i):
            yield j, int(lo[j]), int(hi[j])


def window_sums(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of ``values[..., lo[i]:hi[i]]`` along the last axis, from one prefix sum."""
    zero = np.zeros(values.shape[:-1] + (1,))
    csum = np.concatenate((zero, np.cumsum(values, axis=-1)), axis=-1)
    return csum[..., hi] - csum[..., lo]


def knn_starts(n: int, k: int) -> np.ndarray:
    """Starts of contiguous k-point neighbourhoods, shifted inward at the edges."""
    if k > n:
        raise ValueError(f"window of {k} points exceeds series length {n}")
    idx = np.arange(n)
    return np.clip(idx - (k - 1) // 2, 0, n - k)


def window_offsets(
    starts: np.ndarray, k: int, centers: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Column indices (m, k) of each window and offsets relative to each center.

    Window row r is centered at ``centers[r]`` (default: index r, one window
    per series point).
    """
    cols = starts[:, None] + np.arange(k)[None, :]
    if centers is None:
        centers = np.arange(len(starts))
    offsets = cols - centers[:, None]
    return cols, offsets


@dataclass(frozen=True)
class LocalDesign:
    """The data-independent half of a batched local polynomial fit."""

    cols: np.ndarray  # (m, k) series index of every window point
    design: np.ndarray  # (m, k, degree+1) rescaled offsets raised to each power
    weights: np.ndarray  # (m, k) least-squares weights
    weighted: np.ndarray  # design * weights
    normal: np.ndarray  # (m, degree+1, degree+1) normal matrices


def local_design(
    starts: np.ndarray,
    k: int,
    degree: int,
    weights: np.ndarray | None = None,
    centers: np.ndarray | None = None,
) -> LocalDesign:
    """Windows, design and normal matrices of a degree-``degree`` local fit.

    Parameters
    ----------
    starts : (m,) inclusive window starts (one window per evaluation point)
    k : common window size
    degree : polynomial degree (k and the weight pattern must leave at least
        degree+1 effectively usable points per window)
    weights : optional (m, k) nonnegative least-squares weights
    centers : (m,) series index each window is evaluated at (default 0..m-1,
        i.e. one window per point)
    """
    cols, offsets = window_offsets(starts, k, centers)
    scale = max(1.0, float(np.abs(offsets).max()))
    # the offsets are integers in [lo, hi]: raise each distinct one to the
    # powers once, then gather (the same ** per element, so the same bits)
    lo, hi = int(offsets.min()), int(offsets.max())
    powers = np.arange(degree + 1)
    table = (np.arange(lo, hi + 1) / scale)[:, None] ** powers[None, :]
    design = table[offsets - lo]
    w = np.ones(offsets.shape) if weights is None else weights
    aw = design * w[:, :, None]
    normal = np.einsum("nkp,nkq->npq", aw, design)
    return LocalDesign(cols, design, w, aw, normal)


def batched_local_polyfit(yw: np.ndarray, local: LocalDesign, want_sse: bool = False):
    """Fit the local polynomial in every window of ``local``, evaluated at its center.

    ``yw`` holds the (m, k) values in the windows, ``y[local.cols]`` for a
    series ``y``.  Returns the (m,) fitted values, and with ``want_sse`` also
    each window's weighted residual sum of squares.
    """
    rhs = np.einsum("nkp,nk->np", local.weighted, yw)
    coef = np.linalg.solve(local.normal, rhs[:, :, None])[:, :, 0]
    fitted = coef[:, 0]  # polynomial evaluated at offset 0
    if not want_sse:
        return fitted
    resid = yw - np.einsum("nkp,np->nk", local.design, coef)
    return fitted, np.einsum("nk,nk->n", local.weights, resid**2)


def equivalent_kernel(local: LocalDesign) -> np.ndarray:
    """(m, k) weights of each window's fitted value on its window points.

    The fit at window r is ``rows[r] @ y[local.cols[r]]`` (the fitted value
    is linear in y for fixed windows and weights).
    """
    m, _, p = local.design.shape
    e0 = np.zeros((m, p, 1))
    e0[:, 0, 0] = 1.0
    ninv_e0 = np.linalg.solve(local.normal, e0)[:, :, 0]
    return np.einsum("np,nkp->nk", ninv_e0, local.weighted)


def scatter_rows(starts: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Dense (m, n) matrix holding window row ``rows[r]`` from column ``starts[r]`` on."""
    out = np.zeros((len(rows), n))
    cols = starts[:, None] + np.arange(rows.shape[1])[None, :]
    np.put_along_axis(out, cols, rows, axis=1)
    return out


def scaled_powers(offsets: np.ndarray, degree: int) -> np.ndarray:
    """Design of a single-window fit: powers of the offsets scaled into [-1, 1].

    The degree is clamped to what the window can determine.
    """
    deg = min(degree, len(offsets) - 1)
    scale = max(1.0, float(np.abs(offsets).max()))
    return (offsets / scale)[:, None] ** np.arange(deg + 1)[None, :]


def polyfit_window(y_win: np.ndarray, offsets: np.ndarray, degree: int) -> tuple[float, float]:
    """Single-window unweighted fit: (value at offset 0, residual SSE).

    Used for the irregular truncated windows at the series boundaries where
    batching does not pay off.  The degree is clamped to what the window can
    determine.
    """
    design = scaled_powers(offsets, degree)
    coef, *_ = np.linalg.lstsq(design, y_win, rcond=None)
    resid = y_win - design @ coef
    return coef[0], resid @ resid
