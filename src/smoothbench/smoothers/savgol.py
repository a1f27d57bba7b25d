"""Savitzky-Golay filtering, fixed degree (SGF) and adaptive degree (ADP).

Interior points use the classic convolution form: the center row of the
least-squares projection is precomputed once per (window, degree) and slid
across the series.  Boundary points are refit on the truncated asymmetric
window, with the degree clamped to what the window can determine.

The adaptive variant chooses each point's degree inside [min_degree,
max_degree] by a forward F-test on the residual drop of successive degrees.
When the one-step test fails it probes two degrees ahead before stopping:
on symmetric windows the even and odd polynomial terms decouple, so a
single-step test alone would miss e.g. the quadratic term at a local
extremum.  The test's critical values are a literal table of the F quantiles
for every test a valid window makes, so ADP needs no scipy.  Its LOOCV
diagonal takes one window fit per point, since deleting a sample moves the
filter only on the windows that contain it.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .windows import (
    LocalDesign,
    batched_local_polyfit,
    boundary_windows,
    local_design,
    polyfit_window,
    scaled_powers,
)

F_TEST_ALPHA = 0.05
_SSE_TINY = 1e-280


def _edge_row(offsets: np.ndarray, degree: int) -> np.ndarray:
    """Fit weights of the truncated-window polynomial value at offset zero."""
    return np.linalg.pinv(scaled_powers(offsets, degree))[0]


@lru_cache(maxsize=256)
def _sg_center_coefficients(window: int, degree: int) -> np.ndarray:
    """Center row of the SG projection matrix for a full window."""
    return _edge_row(np.arange(window) - window // 2, degree)


# Upper F_TEST_ALPHA quantiles of F(jump, dof2), written with repr, at row
# jump - 1 and column dof2 = 1..19: every degree test a window of at most 21
# points makes.  Column 0, a fit with no residual degree of freedom, passes no test.
_F_CRITICAL = np.array([
    [np.inf, 161.4476387975882, 18.512820512820493, 10.127964486013925, 7.708647422176786,
     6.607890973703364, 5.987377607273699, 5.591447851220735, 5.317655071578713,
     5.117355029199225, 4.964602743730711, 4.844335674943617, 4.747225346722515,
     4.667192731826847, 4.600109936669422, 4.5430771652669755, 4.493998477666356,
     4.451321772468127, 4.413873419170566, 4.3807496923317935],
    [np.inf, 199.49999999999963, 18.999999999999982, 9.552094495921152, 6.944271909999155,
     5.786135043349963, 5.143252849784718, 4.737414127775881, 4.458970107524511,
     4.256494729093747, 4.1028210151304, 3.982297957094484, 3.8852938346523924,
     3.8055652529780564, 3.738891832440735, 3.682320343673241, 3.633723467591628,
     3.5915305684750805, 3.554557145661787, 3.5218932605788256],
])


def savitzky_golay(y: np.ndarray, window: int, degree: int) -> np.ndarray:
    n = len(y)
    half = window // 2
    out = np.empty(n)
    coeffs = _sg_center_coefficients(window, degree)
    out[half : n - half] = np.correlate(y, coeffs, mode="valid")
    for j, lo, hi in boundary_windows(n, half):
        out[j], _ = polyfit_window(y[lo:hi], np.arange(lo, hi) - j, degree)
    return out


def savgol_operator(n: int, window: int, degree: int) -> np.ndarray:
    """Dense smoother matrix matching :func:`savitzky_golay`."""
    half = window // 2
    out = np.zeros((n, n))
    coeffs = _sg_center_coefficients(window, degree)
    for i in range(half, n - half):
        out[i, i - half : i + half + 1] = coeffs
    for j, lo, hi in boundary_windows(n, half):
        out[j, lo:hi] = _edge_row(np.arange(lo, hi) - j, degree)
    return out


def _steps_accepted(sse_d, sse_up, jump: int, m: int, d):
    """F-test: does raising degree ``d`` by ``jump`` significantly cut the SSE?

    Elementwise over arrays of fits on ``m``-point windows, or over one fit
    whose SSEs are numpy scalars.
    """
    dof2 = m - (d + jump) - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_stat = ((sse_d - sse_up) / jump) * dof2 / sse_up
    crit = _F_CRITICAL[jump - 1, np.maximum(dof2, 0)]
    return (dof2 > 0) & ((sse_up <= _SSE_TINY) | (f_stat > crit))


def _choose_degrees(sses: np.ndarray, min_degree: int, window: int) -> np.ndarray:
    """Forward F-test degree choice for every full-window fit at once.

    ``sses[di, r]`` is the residual SSE of fit r at degree min_degree + di;
    returns the chosen di per fit.
    """
    ndeg = len(sses)
    chosen = np.zeros(sses.shape[1], dtype=int)
    active = np.arange(sses.shape[1])
    while active.size:
        di = chosen[active]
        sse_d = sses[di, active]
        d = min_degree + di
        going = ~(sse_d <= _SSE_TINY) & (di + 1 < ndeg)
        one = going & _steps_accepted(
            sse_d, sses[np.minimum(di + 1, ndeg - 1), active], 1, window, d
        )
        # a symmetric window can hide the d+1 term; probe two ahead
        two = (going & ~one & (di + 2 < ndeg)) & _steps_accepted(
            sse_d, sses[np.minimum(di + 2, ndeg - 1), active], 2, window, d
        )
        chosen[active] += one + 2 * two
        active = active[one | two]
    return chosen


def _interior_designs(
    interior: np.ndarray, window: int, min_degree: int, max_degree: int
) -> list[LocalDesign]:
    """Designs of the full windows centred on ``interior``, one per degree."""
    half = window // 2
    return [
        local_design(interior - half, window, d, centers=interior)
        for d in range(min_degree, max_degree + 1)
    ]


def _degree_fits(yw: np.ndarray, designs: list[LocalDesign]) -> tuple[np.ndarray, np.ndarray]:
    """(ndeg, m) fitted values and residual SSEs of the windows ``yw`` at every degree."""
    pairs = [batched_local_polyfit(yw, local, want_sse=True) for local in designs]
    return np.array([fit for fit, _ in pairs]), np.array([sse for _, sse in pairs])


def _adaptive_values(
    fits: np.ndarray, sses: np.ndarray, min_degree: int, window: int
) -> np.ndarray:
    """Each window's value at the degree the forward F-test chooses; axis 0 is the degree."""
    ndeg = len(fits)
    chosen = _choose_degrees(sses.reshape(ndeg, -1), min_degree, window)
    picked = np.take_along_axis(fits.reshape(ndeg, -1), chosen[None, :], axis=0)
    return picked.reshape(fits.shape[1:])


def adaptive_degree_filter(
    y: np.ndarray, window: int, min_degree: int, max_degree: int
) -> np.ndarray:
    """Adaptive-degree filter of one series (T,) or a stack (B, T) of series.

    Rows of a stack are filtered independently, each exactly as a 1-D call.
    Full windows are still fitted row by row (a batch axis in the solves
    changes their rounding); the degree tests run over all rows at once, and
    a boundary window whose values recur in another row is fitted only once.
    """
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, y.shape[-1])
    count, n = rows.shape
    half = window // 2
    out = np.empty(rows.shape)

    interior = np.arange(half, n - half)
    if interior.size:
        designs = _interior_designs(interior, window, min_degree, max_degree)
        ndeg = len(designs)
        fits = np.empty((ndeg, count, interior.size))
        sses = np.empty((ndeg, count, interior.size))
        for b, row in enumerate(rows):
            fits[:, b], sses[:, b] = _degree_fits(row[designs[0].cols], designs)
        out[:, interior] = _adaptive_values(fits, sses, min_degree, window)

    for j, lo, hi in boundary_windows(n, half):
        offsets = np.arange(lo, hi) - j
        by_content: dict[bytes, float] = {}
        for b in range(count):
            y_win = rows[b, lo:hi]
            key = y_win.tobytes()
            if key not in by_content:
                by_content[key] = _adaptive_window_value(
                    y_win, offsets, min_degree, max_degree
                )
            out[b, j] = by_content[key]
    return out.reshape(y.shape)


def adaptive_degree_diagonal(
    y: np.ndarray, imp: np.ndarray, window: int, min_degree: int, max_degree: int
) -> np.ndarray:
    """Point i of the filter of ``y`` with ``y[i]`` replaced by ``imp[i]``, for every i.

    This is the diagonal of the LOOCV matrix.  Replacing y[i] moves the
    filter only on the windows that contain i, so point i needs one window
    fit, on its own deletion series, where the stacked filter of all T
    deletion series fits T windows per point.  The values are bit for bit
    the diagonal of that stacked filter: the full windows go through the same
    batched fits, one (m, window) array of the same shape.
    """
    n = len(y)
    half = window // 2
    out = np.empty(n)
    interior = np.arange(half, n - half)
    if interior.size:
        designs = _interior_designs(interior, window, min_degree, max_degree)
        yw = y[designs[0].cols]  # row r: the window of deletion series interior[r]
        yw[:, half] = imp[interior]
        out[interior] = _adaptive_values(*_degree_fits(yw, designs), min_degree, window)
    for j, lo, hi in boundary_windows(n, half):
        y_win = y[lo:hi].copy()
        y_win[j - lo] = imp[j]
        out[j] = _adaptive_window_value(y_win, np.arange(lo, hi) - j, min_degree, max_degree)
    return out


def _adaptive_window_value(
    y_win: np.ndarray, offsets: np.ndarray, min_degree: int, max_degree: int
) -> float:
    m = len(y_win)
    max_degree = min(max_degree, m - 1)
    d = min(min_degree, m - 1)
    best_val, best_sse = polyfit_window(y_win, offsets, d)
    while d < max_degree:
        if best_sse <= _SSE_TINY:
            break
        val, sse = polyfit_window(y_win, offsets, d + 1)
        if _steps_accepted(best_sse, sse, 1, m, d):
            best_val, best_sse, d = val, sse, d + 1
            continue
        if d + 2 <= max_degree:
            val2, sse2 = polyfit_window(y_win, offsets, d + 2)
            if _steps_accepted(best_sse, sse2, 2, m, d):
                best_val, best_sse, d = val2, sse2, d + 2
                continue
        break
    return best_val
