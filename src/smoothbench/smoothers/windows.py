"""Windowing and batched local polynomial fits shared by several smoothers.

All smoothers operate on the integer sample index.  Two window families are
used: *clipped* centered windows (truncated at the boundaries, so their size
shrinks near the edges) and *nearest-neighbour* windows (constant size, shifted
inward at the edges).  A window's design and normal matrix depend only on its
shape, the offsets of its points from the point it is evaluated at, so they
are built once per shape and each window gathers its shape's; the batched fit
then solves every per-window weighted least-squares problem in one vectorized
call.  Offsets are rescaled to [-1, 1] to keep the normal equations well
conditioned up to degree 6.
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


@dataclass(frozen=True)
class LocalDesign:
    """The data-independent half of a batched local polynomial fit, one row per window shape."""

    design: np.ndarray  # (s, k, degree+1) rescaled offsets raised to each power
    weights: np.ndarray  # (s, k) least-squares weights
    weighted: np.ndarray  # design * weights
    normal: np.ndarray  # (s, degree+1, degree+1) normal matrices


def local_design(
    offsets: np.ndarray, degree: int, weights: np.ndarray | None = None
) -> LocalDesign:
    """Design and normal matrices of a degree-``degree`` local fit, per window shape.

    Parameters
    ----------
    offsets : (s, k) integer offsets of each shape's points from the point it
        is evaluated at; all shapes share one scale, that of every offset
    degree : polynomial degree (k and the weight pattern must leave at least
        degree+1 effectively usable points per shape)
    weights : optional (s, k) nonnegative least-squares weights
    """
    # the offsets are integers in [lo, hi]: raise each distinct one to the
    # powers once, then gather (the same ** per element, so the same bits)
    lo, hi = int(offsets.min()), int(offsets.max())
    design = scaled_powers(np.arange(lo, hi + 1), degree)[offsets - lo]
    w = np.ones(offsets.shape) if weights is None else weights
    aw = design * w[:, :, None]
    return LocalDesign(design, w, aw, np.einsum("nkp,nkq->npq", aw, design))


def batched_local_polyfit(
    yw: np.ndarray, local: LocalDesign, shape: np.ndarray, want_sse: bool = False
):
    """Fit the local polynomial in every window, evaluated at its point.

    ``yw`` holds the (m, k) values in the windows, and window r has the shape
    ``shape[r]`` of ``local``.  Each sum and solve reads one window, so the fit
    has the bits of a design built with one shape per window.  Returns the
    (m,) fitted values, and with ``want_sse`` also each window's weighted
    residual sum of squares.
    """
    rhs = np.einsum("nkp,nk->np", local.weighted[shape], yw)
    coef = np.linalg.solve(local.normal[shape], rhs[:, :, None])[:, :, 0]
    fitted = coef[:, 0]  # polynomial evaluated at offset 0
    if not want_sse:
        return fitted
    resid = yw - np.einsum("nkp,np->nk", local.design[shape], coef)
    return fitted, np.einsum("nk,nk->n", local.weights[shape], resid**2)


def equivalent_kernel(local: LocalDesign) -> np.ndarray:
    """(s, k) weights of each shape's fitted value on its window points.

    The fit of a window of shape r is ``rows[r]`` times the window's values
    (the fitted value is linear in y for fixed windows and weights).
    """
    m, _, p = local.design.shape
    e0 = np.zeros((m, p, 1))
    e0[:, 0, 0] = 1.0
    ninv_e0 = np.linalg.solve(local.normal, e0)[:, :, 0]
    return np.einsum("np,nkp->nk", ninv_e0, local.weighted)


def scatter_rows(cols: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Dense (m, n) matrix holding window row ``rows[r]`` at the columns ``cols[r]``."""
    out = np.zeros((len(rows), n))
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
