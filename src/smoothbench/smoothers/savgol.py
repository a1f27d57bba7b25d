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
for every test a valid window makes, so ADP needs no scipy.  ADP's filter,
LOOCV diagonal and LOOCV matrix all read one :class:`WindowFits` table,
keyed by (window, degree, shift): the fits of every point's window with the
slot ``shift`` away replaced by its deletion imputation.  Deleting a sample
moves the filter only on the windows that hold it, so the diagonal is
shift 0 and the matrix is one shift per window slot.  The fits depend on
neither the degree range nor each other, so the genomes a GA scores on one
series, and the final matrix, fit each key once; one batched degree choice
over all windows reads them.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .windows import (
    LocalDesign,
    batched_local_polyfit,
    boundary_windows,
    clipped_bounds,
    local_design,
    polyfit_window,
    read_only,
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


def _steps_accepted(sse_d, sse_up, jump: int, m, d):
    """F-test: does raising degree ``d`` by ``jump`` significantly cut the SSE?

    Elementwise over arrays of fits on windows of ``m`` points.  A step
    that leaves no residual degree of freedom is never taken.
    """
    dof2 = m - (d + jump) - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_stat = ((sse_d - sse_up) / jump) * dof2 / sse_up
    crit = _F_CRITICAL[jump - 1, np.maximum(dof2, 0)]
    return (dof2 > 0) & ((sse_up <= _SSE_TINY) | (f_stat > crit))


def _choose_degrees(sses: np.ndarray, min_degree: int, m) -> np.ndarray:
    """Forward F-test degree choice for every window fit at once.

    ``sses[di, r]`` is the residual SSE of fit r, on a window of ``m[r]``
    points (or ``m`` for all), at degree min_degree + di; returns the chosen
    di per fit.  A step needs a residual degree of freedom, so it never
    reaches a degree that an m-point window cannot determine, and the SSEs
    past m - 2 are never read.
    """
    ndeg = len(sses)
    m = np.broadcast_to(m, sses.shape[1:])
    chosen = np.zeros(sses.shape[1], dtype=int)
    active = np.arange(sses.shape[1])
    while active.size:
        di = chosen[active]
        sse_d = sses[di, active]
        d = min_degree + di
        going = ~(sse_d <= _SSE_TINY) & (di + 1 < ndeg)
        one = going & _steps_accepted(
            sse_d, sses[np.minimum(di + 1, ndeg - 1), active], 1, m[active], d
        )
        # a symmetric window can hide the d+1 term; probe two ahead
        two = (going & ~one & (di + 2 < ndeg)) & _steps_accepted(
            sse_d, sses[np.minimum(di + 2, ndeg - 1), active], 2, m[active], d
        )
        chosen[active] += one + 2 * two
        active = active[one | two]
    return chosen


def _rows(n: int, shift: int) -> np.ndarray:
    """The points j of a length-n series whose clipped window holds j + shift."""
    return np.arange(max(0, -shift), n - max(0, shift))


class WindowFits:
    """The window fits of ADP's LOOCV of ``y``, each made when first asked for.

    Key (window, degree, shift) holds the (fit, sse) at ``degree`` of the
    window of every point j, with slot j + shift replaced by
    ``imp[j + shift]`` (NaN where the window lacks that slot): one batched
    fit of all full windows, which share one interior shape per (window,
    degree), and one ``polyfit_window`` per clipped end window.  The fits
    read neither the degree range nor any other key, so one table serves
    every parameter vector on the same ``y`` and ``imp``; its arrays are
    read-only.  With ``imp`` equal to ``y`` nothing is replaced.
    """

    def __init__(self, y: np.ndarray, imp: np.ndarray):
        self.y, self.imp = y, imp
        self._designs: dict[tuple[int, int], LocalDesign] = {}
        self._fits: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}

    def fit(self, window: int, degree: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
        key = window, degree, shift
        if key not in self._fits:
            y, imp = self.y, self.imp
            n, half = len(y), window // 2
            offsets = np.arange(-half, half + 1)
            if (window, degree) not in self._designs:
                self._designs[window, degree] = local_design(offsets[None, :], degree)
            interior = np.arange(half, n - half)
            yw = y[interior[:, None] + offsets]
            yw[:, half + shift] = imp[interior + shift]
            fit, sse = np.full((2, n), np.nan)
            fit[half : n - half], sse[half : n - half] = batched_local_polyfit(
                yw, self._designs[window, degree], np.zeros_like(interior), want_sse=True)
            for j, lo, hi in boundary_windows(n, half):
                if lo <= j + shift < hi:
                    y_win = y[lo:hi].copy()
                    y_win[j + shift - lo] = imp[j + shift]
                    fit[j], sse[j] = polyfit_window(y_win, np.arange(lo, hi) - j, degree)
            self._fits[key] = read_only(fit), read_only(sse)
        return self._fits[key]

    def filter(self, window: int, min_degree: int, max_degree: int, shift: int = 0) -> np.ndarray:
        """The filter at every j of ``_rows(n, shift)``, slot j + shift replaced."""
        lo, hi = clipped_bounds(len(self.y), window)
        rows = _rows(len(self.y), shift)
        pairs = np.array([self.fit(window, d, shift) for d in range(min_degree, max_degree + 1)])
        fits, sses = pairs[:, :, rows].swapaxes(0, 1)
        chosen = _choose_degrees(sses, min_degree, (hi - lo)[rows])
        return np.take_along_axis(fits, chosen[None, :], axis=0)[0]


def adaptive_degree_filter(
    y: np.ndarray, window: int, min_degree: int, max_degree: int
) -> np.ndarray:
    """Adaptive-degree filter of one series: its window fits with nothing replaced."""
    return WindowFits(y, y).filter(window, min_degree, max_degree)


def adaptive_degree_loocv(
    y: np.ndarray,
    imp: np.ndarray,
    window: int,
    min_degree: int,
    max_degree: int,
    fits: WindowFits,
) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The LOOCV diagonal of the filter and a builder of the full LOOCV matrix.

    Column i of the matrix is the filter of ``y`` with ``y[i]`` replaced by
    ``imp[i]``, and the diagonal is its entry i.  Replacing y[i] moves the
    filter only on the windows that hold i: entry (j, j + shift) is the
    filter over ``fits``' key shift at j, and every other entry of row j is
    the filter of ``y`` at j.  The diagonal is shift 0.  A row of a batched
    fit reads only its own window, so every entry is bit for bit the filter
    of its own deletion series.  ``fits`` is the ``WindowFits`` of ``y`` and
    ``imp`` that the caller keeps.
    """
    n, half = len(y), window // 2

    def matrix() -> np.ndarray:
        filtered = adaptive_degree_filter(y, window, min_degree, max_degree)
        out = np.repeat(filtered[:, None], n, axis=1)
        for shift in range(-half, half + 1):
            rows = _rows(n, shift)
            out[rows, rows + shift] = fits.filter(window, min_degree, max_degree, shift)
        return out

    return fits.filter(window, min_degree, max_degree), matrix
