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
for every test a valid window makes, so ADP needs no scipy.  Its filter takes
one series.  Its LOOCV diagonal and full LOOCV matrix take one window fit per
(point, window slot), since deleting a sample moves the filter only on the
windows that contain it.  The diagonal's fits depend on the window and the
degree, not on the degree range: a :class:`DiagonalFits` table keeps them, so
that the genomes a GA scores on one series fit each (window, degree) once.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .windows import (
    batched_local_polyfit,
    boundary_windows,
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


def _adaptive_fits(pairs: list, min_degree: int, window: int) -> np.ndarray:
    """The F-test choice over the (fit, sse) pairs of full-window fits, one pair per degree."""
    chosen = _choose_degrees(np.array([sse for _, sse in pairs]), min_degree, window)
    fits = np.array([fit for fit, _ in pairs])
    return np.take_along_axis(fits, chosen[None, :], axis=0)[0]


class DiagonalFits:
    """The window fits of an ADP LOOCV diagonal, each made when first asked for.

    Entry j of the diagonal is the filter at j of ``y`` with ``y[j]``
    replaced by ``imp[j]``, a degree choice over fits of j's window.  The
    table keys those fits by (window, degree): the batched (fit, sse) of
    every full window, and the (value, sse) of each clipped end window.
    They read neither the degree range nor any other window, so one table
    serves every parameter vector on the same ``y`` and ``imp``; its arrays
    are read-only.
    """

    def __init__(self, y: np.ndarray, imp: np.ndarray):
        self.y, self.imp = y, imp
        self._full: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._ends: dict[tuple[int, int], dict[int, tuple[float, float]]] = {}

    def full(self, window: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """(fit, sse) at ``degree`` of every full window, its centre replaced."""
        key = window, degree
        if key not in self._full:
            half = window // 2
            interior = np.arange(half, len(self.y) - half)
            local = local_design(interior - half, window, degree, centers=interior)
            yw = self.y[local.cols]
            yw[:, half] = self.imp[interior]
            fit, sse = batched_local_polyfit(yw, local, want_sse=True)
            self._full[key] = read_only(fit), read_only(sse)
        return self._full[key]

    def end(self, window: int, degree: int, j: int) -> tuple[float, float]:
        """(value, sse) at ``degree`` of end point j's clipped window, y[j] replaced."""
        ends = self._ends.setdefault((window, degree), {})
        if j not in ends:
            half = window // 2
            lo, hi = max(0, j - half), min(len(self.y), j + half + 1)
            y_win = self.y[lo:hi].copy()
            y_win[j - lo] = self.imp[j]
            ends[j] = polyfit_window(y_win, np.arange(lo, hi) - j, degree)
        return ends[j]

    def diagonal(self, window: int, min_degree: int, max_degree: int) -> np.ndarray:
        """The filter at every j of ``y`` with ``y[j]`` replaced by ``imp[j]``."""
        n = len(self.y)
        half = window // 2
        out = np.empty(n)
        pairs = [self.full(window, d) for d in range(min_degree, max_degree + 1)]
        out[half : n - half] = _adaptive_fits(pairs, min_degree, window)
        for j, lo, hi in boundary_windows(n, half):
            out[j] = _degree_choice(
                lambda d: self.end(window, d, j), hi - lo, min_degree, max_degree)
        return out


def adaptive_degree_filter(
    y: np.ndarray, window: int, min_degree: int, max_degree: int
) -> np.ndarray:
    """Adaptive-degree filter of one series: its LOOCV diagonal with nothing replaced."""
    return DiagonalFits(y, y).diagonal(window, min_degree, max_degree)


def adaptive_degree_loocv(
    y: np.ndarray,
    imp: np.ndarray,
    window: int,
    min_degree: int,
    max_degree: int,
    fits: "DiagonalFits | None" = None,
) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The LOOCV diagonal of the filter and a builder of the full LOOCV matrix.

    Column i of the matrix is the filter of ``y`` with ``y[i]`` replaced by
    ``imp[i]``, and the diagonal is its entry i.  Replacing y[i] moves the
    filter only on the windows that hold i: entry (j, i) is one fit of j's
    window with i's slot replaced, and every other entry of row j is the
    filter of ``y`` at j.  The full windows of all points go through one
    (m, window) batched fit per degree and replaced slot.  A row of a
    batched fit reads only its own window, so every entry is bit for bit
    the filter of its own deletion series.  ``fits``, a ``DiagonalFits`` of
    ``y`` and ``imp`` kept by the caller, supplies the diagonal's fits.
    """
    n = len(y)
    half = window // 2
    interior = np.arange(half, n - half)
    fits = DiagonalFits(y, imp) if fits is None else fits

    def full_windows(designs: list, shift: int) -> np.ndarray:
        # the filter at every interior j, slot half + shift replaced by imp[j + shift]
        yw = y[designs[0].cols]
        yw[:, half + shift] = imp[interior + shift]
        pairs = [batched_local_polyfit(yw, local, want_sse=True) for local in designs]
        return _adaptive_fits(pairs, min_degree, window)

    def matrix() -> np.ndarray:
        designs = [
            local_design(interior - half, window, d, centers=interior)
            for d in range(min_degree, max_degree + 1)
        ]
        filtered = adaptive_degree_filter(y, window, min_degree, max_degree)
        out = np.repeat(filtered[:, None], n, axis=1)
        for shift in range(-half, half + 1):
            out[interior, interior + shift] = full_windows(designs, shift)
        for j, lo, hi in boundary_windows(n, half):
            for i in range(lo, hi):
                # the filter at j on its clipped window, slot i replaced by imp[i]
                y_win = y[lo:hi].copy()
                y_win[i - lo] = imp[i]
                out[j, i] = _adaptive_window_value(
                    y_win, np.arange(lo, hi) - j, min_degree, max_degree)
        return out

    return fits.diagonal(window, min_degree, max_degree), matrix


def _adaptive_window_value(
    y_win: np.ndarray, offsets: np.ndarray, min_degree: int, max_degree: int
) -> float:
    return _degree_choice(
        lambda d: polyfit_window(y_win, offsets, d), len(y_win), min_degree, max_degree)


def _degree_choice(
    fit: Callable[[int], tuple[float, float]], m: int, min_degree: int, max_degree: int
) -> float:
    """The filter's value on one m-point window whose degree-d fit is ``fit(d)``."""
    max_degree = min(max_degree, m - 1)
    d = min(min_degree, m - 1)
    best_val, best_sse = fit(d)
    while d < max_degree:
        if best_sse <= _SSE_TINY:
            break
        val, sse = fit(d + 1)
        if _steps_accepted(best_sse, sse, 1, m, d):
            best_val, best_sse, d = val, sse, d + 1
            continue
        if d + 2 <= max_degree:
            val2, sse2 = fit(d + 2)
            if _steps_accepted(best_sse, sse2, 2, m, d):
                best_val, best_sse, d = val2, sse2, d + 2
                continue
        break
    return best_val
