"""A (B, T) stack through ``apply_to_values`` against B separate 1-D calls.

The LOOCV engine smooths all deletion series of a nonlinear method in one
stacked call, so a report stays byte-identical only if every row of the stack
comes out bit for bit as the 1-D call on that row.  Results are compared as
int64 bit patterns, which also tells -0.0 from 0.0 and NaN payloads apart.

GAM's GCV search and KAL's likelihood fit run the same stacked code for a
stack and for one series, so they are also checked against reference copies
of the earlier row-by-row scans, kept below as the slow path.

ADP's LOOCV diagonal, LOOCV matrix and 1-D filter, from one table of window
fits, are checked against reference copies of the stacked filter and the
diagonal they replaced, and against the T one-series filters of the deletion
series.  The references choose each end window's degree with a copy of the
scalar F-test loop that the batched degree choice replaced.

The window rules that SMA, RRM, SUP and ADP share (clipped boundary windows,
prefix-sum window sums, ADP's F-test) are checked against copies of the
per-smoother forms they replaced.

RRM and TUK, whose fixpoint loop recomputes only the columns a pass can
change, are checked against a copy of the loop that recomputed every column
with ``np.median``.

A ``LoocvEvaluator`` keeps SUP's bass-free stage and ADP's table of window
fits across parameter vectors; its diagonal, matrix, indices and GA result
are checked against the stateless path, and its stage and fits are counted.
"""
import contextlib
import math
from datetime import date, timedelta
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import solve_triangular
from scipy.special import fdtri

import smoothbench.evaluation as ev
import smoothbench.pipeline as pl
import smoothbench.smoothers as smoothers
import smoothbench.smoothers.basic as basic
import smoothbench.smoothers.gam as gam
import smoothbench.smoothers.savgol as savgol
import smoothbench.smoothers.supsmu as supsmu
from smoothbench.calibration import GaConfig, calibrate, repair_genome, search_bounds
from smoothbench.errors import DegenerateLikelihood, SeriesTooShort, SmoothbenchError
from smoothbench.evaluation import build_loocv_matrix, deletion_imputations
from smoothbench.pipeline import PipelineConfig
from smoothbench.smoothers import MethodId, SmootherSpec, apply_to_values
from smoothbench.smoothers.basic import simple_moving_average
from smoothbench.smoothers.kalman import VARIANCE_FLOOR_FACTOR, fit_kalman_local_level
from smoothbench.smoothers.windows import (
    batched_local_polyfit,
    boundary_windows,
    clipped_bounds,
    local_design,
    polyfit_window,
)
from smoothbench.timeseries import TimeSeries, impute_linear

from conftest import full_windows


def spec_at(method: MethodId, n: int, fractions) -> SmootherSpec:
    """Spec whose genes sit at ``fractions`` of the length-n search box."""
    bounds = search_bounds(method, n)
    raw = [b.lo + f * (b.hi - b.lo) for b, f in zip(bounds, fractions)]
    return SmootherSpec(method, repair_genome(method, bounds, raw))


def outcome(spec: SmootherSpec, values: np.ndarray):
    """The bit pattern of the smooth, or the type of the error it raised."""
    try:
        return apply_to_values(spec, values).view(np.int64)
    except SmoothbenchError as exc:
        return type(exc)


def assert_stack_matches_rows(spec: SmootherSpec, stack: np.ndarray) -> None:
    rows = [outcome(spec, row.copy()) for row in stack]
    errors = [r for r in rows if isinstance(r, type)]
    stacked = outcome(spec, stack)
    if errors:
        assert stacked is errors[0]
        return
    assert stacked.shape == stack.shape
    for b, row in enumerate(rows):
        np.testing.assert_array_equal(stacked[b], row, err_msg=f"row {b} of {spec}")


def deletion_stack(y: np.ndarray) -> np.ndarray:
    """The T single-deletion series the LOOCV engine smooths together."""
    n = len(y)
    stack = np.tile(y, (n, 1))
    np.fill_diagonal(stack, deletion_imputations(y, np.arange(n, dtype=float)))
    return stack


def deletion_smooths(spec: SmootherSpec, y: np.ndarray, imp: np.ndarray) -> np.ndarray:
    """The LOOCV matrix as T deletion smooths in one stacked call: column i is
    the smooth of ``y`` with ``y[i]`` replaced by ``imp[i]``."""
    return np.ascontiguousarray(apply_to_values(spec, smoothers.deletion_stack(y, imp)).T)


@st.composite
def stacks(draw):
    method = draw(st.sampled_from(list(MethodId)))
    n = draw(st.integers(5, 36))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    spec = spec_at(method, n, fractions)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e5]))
    y = scale * (np.cumsum(gen.normal(size=n)) + gen.standard_t(3, size=n))
    rows = [y]
    for _ in range(draw(st.integers(0, 4))):
        row = y.copy()
        hit = gen.integers(n, size=draw(st.integers(1, 3)))
        row[hit] = scale * gen.normal(size=len(hit))
        rows.append(row)
    if draw(st.booleans()):
        rows.append(gen.permutation(y))
    return spec, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stack_matches_row_by_row_calls(case):
    spec, stack = case
    assert_stack_matches_rows(spec, stack)


@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_deletion_stack_matches_rows(method, rng):
    n = 23
    y = np.cumsum(rng.normal(size=n)) + 5.0
    for fractions in ((0.0,) * 4, (0.5,) * 4, (1.0,) * 4):
        assert_stack_matches_rows(spec_at(method, n, fractions), deletion_stack(y))


def test_single_series_keeps_its_shape(rng):
    y = rng.normal(size=12)
    for method in MethodId:
        spec = spec_at(method, 12, (0.5,) * 4)
        assert apply_to_values(spec, y).shape == (12,)
        assert apply_to_values(spec, y[None, :]).shape == (1, 12)


def test_stack_of_wrong_rank_rejected():
    spec = spec_at(MethodId.RRM, 8, (0.0,))
    with pytest.raises(ValueError):
        apply_to_values(spec, np.zeros((2, 2, 8)))


def _two_thirds_missing(gen: np.random.Generator, n: int) -> np.ndarray:
    values = list(np.cumsum(gen.normal(size=n)) + 10.0)
    for i in range(n):
        if i % 3 and 0 < i < n - 1:
            values[i] = None
    return impute_linear(TimeSeries.from_values(values)).values()


def _degenerate_inputs() -> dict[str, np.ndarray]:
    gen = np.random.default_rng(4)
    noise = gen.normal(size=24)
    mostly_zero = np.zeros(24)
    mostly_zero[[5, 17]] = (3.0, -1.5)
    return {
        "t5": np.array([1.0, 4.0, 2.0, 8.0, 5.0]),
        "constant": np.full(24, 2.5),
        "all_zero": np.zeros(24),
        "mostly_zero": mostly_zero,
        "huge": 1e17 * (1.0 + 0.1 * noise),
        "tiny": 1e-17 * (1.0 + 0.1 * noise),
        "step_1e6": np.where(np.arange(24) < 12, 0.0, 1e6) + noise,
        "two_thirds_missing": _two_thirds_missing(gen, 24),
    }


DEGENERATE = _degenerate_inputs()


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_degenerate_inputs(method, name):
    y = DEGENERATE[name]
    for fractions in ((0.0,) * 4, (1.0,) * 4):
        assert_stack_matches_rows(spec_at(method, len(y), fractions), deletion_stack(y))


# --- reference row-by-row scans (slow paths) -------------------------------


def reference_gcv_penalty(y, rhs, n, basis_dim) -> float:
    """GCV penalty of one series: every candidate scored by its own scalar call."""
    chol, eigvals, eigvecs = gam._gcv_factorization(n, basis_dim)
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

    lo, hi = gam.GCV_LOG10_RANGE
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


def reference_gam(y: np.ndarray, basis_dim: int) -> np.ndarray:
    """Auto-penalty GAM smooth of one series."""
    n = len(y)
    design, gram, penalty = gam._gam_operators(n, basis_dim)
    rhs = design.T @ y
    lam = reference_gcv_penalty(y, rhs, n, basis_dim)
    return design @ np.linalg.solve(gram + lam * penalty, rhs)


_LOG_2PI = float(np.log(2.0 * np.pi))


def _reference_loglik_grid(y, qs, rs):
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


def _reference_rts_smooth(y, q, r):
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


def reference_kalman(y: np.ndarray):
    """(smoothed, q, r) of one series, its likelihood grids one series wide."""
    sample_var = float(np.var(y))
    if sample_var <= 0.0:
        return np.asarray(y, dtype=float).copy(), 1e-30, 1e-30
    floor = VARIANCE_FLOOR_FACTOR * sample_var
    base = np.log10(sample_var)
    lo, hi = base - 9.0, base + 3.0
    exps = base + np.linspace(-8.0, 2.0, 11)
    lq, lr = np.meshgrid(exps, exps, indexing="ij")
    ll = _reference_loglik_grid(y, 10.0**lq.ravel(), 10.0**lr.ravel())
    best = int(np.argmax(ll))
    log_q, log_r = float(lq.ravel()[best]), float(lr.ravel()[best])
    half_width = 1.0
    for _ in range(3):
        for which in (0, 1):
            center = log_q if which == 0 else log_r
            cand = np.clip(center + np.linspace(-half_width, half_width, 9), lo, hi)
            if which == 0:
                lls = _reference_loglik_grid(y, 10.0**cand, np.full_like(cand, 10.0**log_r))
                log_q = float(cand[int(np.argmax(lls))])
            else:
                lls = _reference_loglik_grid(y, np.full_like(cand, 10.0**log_q), 10.0**cand)
                log_r = float(cand[int(np.argmax(lls))])
        half_width *= 0.4
    q = max(10.0**log_q, floor)
    r = max(10.0**log_r, floor)
    smoothed = _reference_rts_smooth(y, q, r)
    if not np.all(np.isfinite(smoothed)):
        raise DegenerateLikelihood("Kalman smoothing produced non-finite values")
    return smoothed, q, r


def assert_gam_matches_reference(stack: np.ndarray, basis_dim: int) -> None:
    got = gam.gam_smoother(stack, basis_dim, 0.0, 0, 1)
    for b, row in enumerate(stack):
        want = reference_gam(row.copy(), basis_dim)
        np.testing.assert_array_equal(got[b].view(np.int64), want.view(np.int64),
                                      err_msg=f"row {b}, basis_dim {basis_dim}")


def assert_kalman_matches_reference(stack: np.ndarray) -> None:
    rows = []
    for row in stack:
        try:
            rows.append(reference_kalman(row.copy()))
        except DegenerateLikelihood:
            with pytest.raises(DegenerateLikelihood):
                fit_kalman_local_level(stack)
            return
    smoothed, q, r = fit_kalman_local_level(stack)
    for b, (want, want_q, want_r) in enumerate(rows):
        np.testing.assert_array_equal(smoothed[b].view(np.int64), want.view(np.int64),
                                      err_msg=f"row {b}")
        assert (q[b], r[b]) == (want_q, want_r)


@st.composite
def deletion_stacks(draw):
    """A deletion stack, with a few extra rows, at a scale from 1e-3 to 1e17."""
    n = draw(st.integers(5, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 17))
    y = scale * (np.cumsum(gen.normal(size=n)) + gen.standard_t(3, size=n))
    rows = [deletion_stack(y)]
    if draw(st.booleans()):
        rows.append(np.full((1, n), y[0]))
    if draw(st.booleans()):
        rows.append(gen.permutation(y)[None, :])
    return np.concatenate(rows)


@settings(max_examples=60, deadline=None)
@given(deletion_stacks(), st.floats(0.0, 1.0))
def test_gam_matches_reference_scan(stack, fraction):
    n = stack.shape[1]
    basis_dim = 4 + int(round(fraction * (min(40, n) - 4)))
    assert_gam_matches_reference(stack, basis_dim)


@settings(max_examples=60, deadline=None)
@given(deletion_stacks())
def test_kalman_matches_reference_fit(stack):
    assert_kalman_matches_reference(stack)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_inputs_match_reference(name):
    y = DEGENERATE[name]
    stack = deletion_stack(y)
    for basis_dim in (4, 10, len(y)):
        if basis_dim > len(y):
            # outside the length rule: the front door refuses before GAM runs
            with pytest.raises(SeriesTooShort):
                apply_to_values(SmootherSpec(MethodId.GAM, (basis_dim, 0, 0, 1)), y)
        else:
            assert_gam_matches_reference(stack, basis_dim)
    assert_kalman_matches_reference(stack)


def test_gram_factors_at_every_basis_dim():
    # n >= basis_dim, which required_length keeps, leaves the Gram matrix
    # positive definite: GCV's Cholesky-based eigen scorer always applies
    for basis_dim in range(4, 41):
        for n in (*range(basis_dim, basis_dim + 5), 60, 365):
            _, gram, _ = gam._gam_operators(n, basis_dim)
            assert np.all(np.isfinite(np.linalg.cholesky(gram))), (n, basis_dim)


def test_kalman_variances_are_per_row(rng):
    y = np.cumsum(rng.normal(size=20))
    smoothed, q, r = fit_kalman_local_level(np.stack([y, 1e3 * y, np.full(20, 2.0)]))
    assert smoothed.shape == (3, 20) and q.shape == r.shape == (3,)
    assert math.isclose(q[1] / q[0], 1e6, rel_tol=1e-9)
    assert q[2] == r[2] == 1e-30


def assert_bits_equal(got, want, label) -> None:
    assert got.shape == want.shape, label
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=label)


# --- ADP's window kernel against the stacked filter it replaced -----------


def _reference_designs(interior, window, min_degree, max_degree):
    """The interior windows' columns and, per degree, a design with a shape for each."""
    cols, offsets = full_windows(interior - window // 2, window, interior)
    return cols, [local_design(offsets, d) for d in range(min_degree, max_degree + 1)]


def _reference_degree_fits(yw, designs):
    shape = np.arange(len(yw))
    pairs = [batched_local_polyfit(yw, local, shape, want_sse=True) for local in designs]
    return np.array([fit for fit, _ in pairs]), np.array([sse for _, sse in pairs])


def _reference_adaptive_values(fits, sses, min_degree, window):
    ndeg = len(fits)
    chosen = savgol._choose_degrees(sses.reshape(ndeg, -1), min_degree, window)
    picked = np.take_along_axis(fits.reshape(ndeg, -1), chosen[None, :], axis=0)
    return picked.reshape(fits.shape[1:])


def adaptive_window_value(
    y_win: np.ndarray, offsets: np.ndarray, min_degree: int, max_degree: int
) -> float:
    return degree_choice(
        lambda d: polyfit_window(y_win, offsets, d), len(y_win), min_degree, max_degree)


def degree_choice(
    fit: Callable[[int], tuple[float, float]], m: int, min_degree: int, max_degree: int
) -> float:
    """The filter's value on one m-point window whose degree-d fit is ``fit(d)``."""
    max_degree = min(max_degree, m - 1)
    d = min(min_degree, m - 1)
    best_val, best_sse = fit(d)
    while d < max_degree:
        if best_sse <= savgol._SSE_TINY:
            break
        val, sse = fit(d + 1)
        if savgol._steps_accepted(best_sse, sse, 1, m, d):
            best_val, best_sse, d = val, sse, d + 1
            continue
        if d + 2 <= max_degree:
            val2, sse2 = fit(d + 2)
            if savgol._steps_accepted(best_sse, sse2, 2, m, d):
                best_val, best_sse, d = val2, sse2, d + 2
                continue
        break
    return best_val


def reference_stacked_adp(y, window, min_degree, max_degree):
    """ADP filter of a (B, T) stack: full windows fitted row by row, the
    degree tests over all rows at once, each boundary window's distinct
    contents fitted once."""
    rows = y.reshape(-1, y.shape[-1])
    count, n = rows.shape
    half = window // 2
    out = np.empty(rows.shape)
    interior = np.arange(half, n - half)
    cols, designs = _reference_designs(interior, window, min_degree, max_degree)
    ndeg = len(designs)
    fits = np.empty((ndeg, count, interior.size))
    sses = np.empty((ndeg, count, interior.size))
    for b, row in enumerate(rows):
        fits[:, b], sses[:, b] = _reference_degree_fits(row[cols], designs)
    out[:, interior] = _reference_adaptive_values(fits, sses, min_degree, window)
    for j, lo, hi in boundary_windows(n, half):
        offsets = np.arange(lo, hi) - j
        by_content = {}
        for b in range(count):
            y_win = rows[b, lo:hi]
            key = y_win.tobytes()
            if key not in by_content:
                by_content[key] = adaptive_window_value(
                    y_win, offsets, min_degree, max_degree)
            out[b, j] = by_content[key]
    return out.reshape(y.shape)


def reference_adp_diagonal(y, imp, window, min_degree, max_degree):
    """Entry i of the filter of ``y`` with ``y[i]`` replaced by ``imp[i]``, one window each."""
    n = len(y)
    half = window // 2
    out = np.empty(n)
    interior = np.arange(half, n - half)
    cols, designs = _reference_designs(interior, window, min_degree, max_degree)
    yw = y[cols]
    yw[:, half] = imp[interior]
    out[interior] = _reference_adaptive_values(
        *_reference_degree_fits(yw, designs), min_degree, window)
    for j, lo, hi in boundary_windows(n, half):
        y_win = y[lo:hi].copy()
        y_win[j - lo] = imp[j]
        out[j] = adaptive_window_value(
            y_win, np.arange(lo, hi) - j, min_degree, max_degree)
    return out


def assert_adp_matches_references(series: TimeSeries, window, min_degree, max_degree) -> None:
    """ADP's LOOCV diagonal, matrix and 1-D filter, bitwise, against the
    reference stacked filter and diagonal and against T one-series filters."""
    params = (window, min_degree, max_degree)
    spec = SmootherSpec(MethodId.ADP, params)
    label = str(spec)
    y = series.values()
    imp = deletion_imputations(y, series.day_index())
    loocv = build_loocv_matrix(spec, series)
    diagonal = loocv.diagonal.copy()  # computed before the matrix is built
    # column i is the filter of deletion series i, one series at a time and stacked
    assert_bits_equal(loocv.matrix, deletion_smooths(spec, y, imp), label)
    stack = np.tile(y, (len(y), 1))
    np.fill_diagonal(stack, imp)
    want = np.ascontiguousarray(reference_stacked_adp(stack, *params).T)
    assert_bits_equal(loocv.matrix, want, label)
    assert_bits_equal(diagonal, np.diag(want).copy(), label)
    assert_bits_equal(diagonal, reference_adp_diagonal(y, imp, *params), label)
    assert_bits_equal(apply_to_values(spec, y), reference_stacked_adp(y[None], *params)[0], label)


def assert_adp_at_fractions(series: TimeSeries, fractions) -> None:
    # the fractions place window, min_degree and max_degree in their search box
    spec = spec_at(MethodId.ADP, len(series), fractions)
    assert_adp_matches_references(series, *(int(p) for p in spec.params))


@st.composite
def adp_series(draw):
    """A series of 5 to 80 points, at a scale from 1e-3 to 1e17, some with uneven spacing."""
    n = draw(st.integers(5, 80))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 17))
    y = scale * (np.cumsum(gen.normal(size=n)) + gen.standard_t(3, size=n))
    if draw(st.booleans()):
        return TimeSeries.from_values(y)
    days = np.cumsum(gen.integers(1, 8, size=n))
    return TimeSeries.from_pairs(
        (date(2020, 1, 1) + timedelta(days=int(d)), float(v)) for d, v in zip(days, y)
    )


@settings(max_examples=150, deadline=None)
@given(adp_series(), st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_adp_diagonal_matches_stacked_build(series, fractions):
    assert_adp_at_fractions(series, fractions)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_adp_diagonal_on_degenerate_inputs(name):
    series = TimeSeries.from_values(DEGENERATE[name])
    for window in (0.0, 0.5, 1.0):
        for low in (0.0, 1.0):
            for high in (0.0, 0.5, 1.0):
                assert_adp_at_fractions(series, (window, low, high))


@pytest.mark.parametrize("window", range(5, 22, 2))
def test_adp_across_the_degree_box(window, rng):
    # every (min_degree, max_degree) the catalog allows, n from window to 3 * window
    for min_degree in range(0, 3):
        for max_degree in range(min_degree, min(6, window - 1) + 1):
            n = int(rng.integers(window, 3 * window + 1))
            series = TimeSeries.from_values(np.cumsum(rng.normal(size=n)) + rng.normal(size=n))
            assert_adp_matches_references(series, window, min_degree, max_degree)


def test_adp_at_t365(rng):
    y = 100.0 + np.cumsum(rng.normal(size=365)) + rng.standard_t(3, size=365)
    series = TimeSeries.from_values(y)
    assert_adp_matches_references(series, 21, 0, 6)
    assert_adp_matches_references(series, 5, 1, 4)


def test_adp_matrix_needs_no_deletion_smooths(monkeypatch, rng):
    def refuse_stacks(spec, values):
        if np.ndim(values) == 2:
            raise AssertionError("ADP's LOOCV matrix smoothed a whole deletion series")
        return apply_to_values(spec, values)

    monkeypatch.setattr(smoothers, "apply_to_values", refuse_stacks)
    monkeypatch.setattr(ev, "apply_to_values", refuse_stacks)
    series = TimeSeries.from_values(np.cumsum(rng.normal(size=40)))
    loocv = build_loocv_matrix(SmootherSpec(MethodId.ADP, (9.0, 0.0, 4.0)), series)
    assert loocv.matrix.shape == (40, 40)


# --- shared window rules against copies of their per-smoother forms -------


def reference_moving_average(y, window):
    lo, hi = clipped_bounds(y.shape[-1], window)
    zero = np.zeros(y.shape[:-1] + (1,))
    csum = np.concatenate((zero, np.cumsum(y, axis=-1)), axis=-1)
    return (np.take(csum, hi, axis=-1) - np.take(csum, lo, axis=-1)) / (hi - lo)


def reference_running_median(y, window):
    n = y.shape[-1]
    h = window // 2
    out = np.empty(y.shape)
    if n >= window:
        out[..., h : n - h] = np.median(sliding_window_view(y, window, axis=-1), axis=-1)
    for i in range(min(h, n)):
        out[..., i] = np.median(y[..., : min(n, i + h + 1)], axis=-1)
    for i in range(max(h, n - h), n):
        out[..., i] = np.median(y[..., max(0, i - h) :], axis=-1)
    return out


def reference_local_linear(y, k, want_loo=False):
    n = y.shape[-1]
    lo, hi, s1, sxx, centered, hat = supsmu._window_geometry(n, k)
    x = np.arange(n, dtype=float)
    zero = np.zeros(y.shape[:-1] + (1,))
    cy = np.concatenate((zero, np.cumsum(y, axis=-1)), axis=-1)
    cxy = np.concatenate((zero, np.cumsum(x * y, axis=-1)), axis=-1)
    sy = cy[..., hi] - cy[..., lo]
    sxy = cxy[..., hi] - cxy[..., lo]
    slope = (sxy - s1 * sy / k) / sxx
    fitted = sy / k + slope * centered
    if not want_loo:
        return fitted
    loo = (y - fitted) / np.maximum(1.0 - hat, 1e-6)
    return fitted, loo


def reference_f_critical(num_dof: int, dof2: int) -> float:
    return float(fdtri(num_dof, dof2, 1.0 - savgol.F_TEST_ALPHA))


def reference_step_accepted(sse_d: float, sse_up: float, jump: int, m: int, d: int) -> bool:
    dof2 = m - (d + jump) - 1
    if dof2 <= 0:
        return False
    if sse_up <= savgol._SSE_TINY:
        return True
    f_stat = ((sse_d - sse_up) / jump) * dof2 / sse_up
    return f_stat > reference_f_critical(jump, dof2)


def assert_window_rules_match_reference(stack: np.ndarray, window: int) -> None:
    """SMA, RRM's running median and SUP's local linear fit at ``window``, bitwise."""
    for y in (stack, stack[0]):
        assert_bits_equal(simple_moving_average(y, window),
                          reference_moving_average(y, window), f"sma {window}")
        every = np.arange(y.shape[-1])
        assert_bits_equal(basic._running_median(y, window, every),
                          reference_running_median(y, window), f"median {window}")
        k = min(window, y.shape[-1])
        if k < 3:
            continue
        assert_bits_equal(supsmu._local_linear(y, k), reference_local_linear(y, k), f"sup {k}")
        for got, want in zip(supsmu._local_linear(y, k, want_loo=True),
                             reference_local_linear(y, k, want_loo=True)):
            assert_bits_equal(got, want, f"sup loo {k}")


@st.composite
def window_stacks(draw):
    """An odd window of 3..21 points and a deletion stack of window to 3 * window points."""
    window = draw(st.sampled_from(range(3, 22, 2)))
    n = draw(st.integers(window, 3 * window))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 17))
    y = scale * (np.cumsum(gen.normal(size=n)) + gen.standard_t(3, size=n))
    return window, deletion_stack(y)


@settings(max_examples=100, deadline=None)
@given(window_stacks())
def test_window_rules_match_reference_copies(case):
    window, stack = case
    assert_window_rules_match_reference(stack, window)


def test_window_rules_at_every_length(rng):
    # every odd window 3..21 from one point, through the window, to 3 * window
    for window in range(3, 22, 2):
        for n in range(1, 3 * window + 1):
            stack = np.cumsum(rng.normal(size=(3, n)), axis=-1)
            assert_window_rules_match_reference(stack, window)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_window_rules_on_degenerate_inputs(name):
    stack = deletion_stack(DEGENERATE[name])
    for window in range(3, 22, 2):
        assert_window_rules_match_reference(stack, window)


def test_boundary_windows_are_the_clipped_end_windows():
    for n in range(1, 50):
        for half in range(0, 11):
            got = {(j, lo, hi) for j, lo, hi in boundary_windows(n, half)}
            want = {(j, max(0, j - half), min(n, j + half + 1))
                    for j in range(n) if j < half or j >= n - half}
            assert got == want, (n, half)


# --- RRM and TUK against a copy of the loop that recomputed every column ---


def reference_fixpoint(step, y, max_passes):
    """The fixpoint loop that recomputed every column of every active row.

    Also returns the number of passes each row ran.
    """
    cur = np.array(y, dtype=float)
    rows = cur.reshape(-1, cur.shape[-1])
    active = np.arange(len(rows))
    passes = np.zeros(len(rows), dtype=int)
    for _ in range(max_passes):
        if not active.size:
            break
        passes[active] += 1
        before = rows[active]
        nxt = step(before)
        moved = ~np.all(nxt == before, axis=-1)
        rows[active[moved]] = nxt[moved]
        active = active[moved]
    return cur, passes


def reference_median_of_three(rows):
    nxt = rows.copy()
    nxt[:, 1:-1] = np.median(sliding_window_view(rows, 3, axis=-1), axis=-1)
    return nxt


def assert_fixpoints_match_reference(stack: np.ndarray, window: int) -> np.ndarray:
    """RRM at ``window`` and TUK on the stack and on its first row, bitwise.

    Returns the number of passes each row of the stack ran in RRM.
    """
    for y in (stack[0], stack):
        want, passes = reference_fixpoint(lambda rows: reference_running_median(rows, window),
                                          y, basic.RRM_MAX_PASSES)
        assert_bits_equal(basic.repeated_running_median(y, window), want, f"rrm {window}")
        if y.shape[-1] >= 3:
            want, _ = reference_fixpoint(reference_median_of_three, y, max(y.shape[-1], 8))
            assert_bits_equal(basic.tukey_3r(y), want, "tuk")
    return passes


@st.composite
def fixpoint_stacks(draw):
    """An odd window of 3..21 points and a stack of 1 to 3 * window points.

    The values are a scaled random walk, signed zeros among a few small
    integers, or positive values near the largest double.
    """
    window = draw(st.sampled_from(range(3, 22, 2)))
    n = draw(st.integers(1, 3 * window))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "signed_zeros", "huge"]))
    if kind == "walk":
        scale = 10.0 ** draw(st.integers(-3, 17))
        y = scale * (np.cumsum(gen.normal(size=n)) + gen.standard_t(3, size=n))
    elif kind == "signed_zeros":
        y = gen.choice([-0.0, 0.0, -1.0, 1.0, 2.0], size=n)
    else:
        y = 1e308 * gen.uniform(0.9, 1.79, size=n)
    with np.errstate(over="ignore"):
        stack = deletion_stack(y) if n > 1 else y[None, :]
    if kind == "signed_zeros":
        stack = np.vstack((stack, gen.choice([-0.0, 0.0, 1.0], size=(3, n))))
    return window, stack


@settings(max_examples=150, deadline=None)
@given(fixpoint_stacks())
def test_fixpoints_match_the_every_column_loop(case):
    window, stack = case
    # near the largest double an even boundary window overflows to inf, as
    # np.median's does
    with np.errstate(over="ignore"):
        assert_fixpoints_match_reference(stack, window)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_fixpoints_on_degenerate_inputs(name):
    stack = deletion_stack(DEGENERATE[name])
    for window in range(3, 22, 2):
        assert_fixpoints_match_reference(stack, window)


def test_rows_at_the_pass_cap_match(rng):
    # RRM's even end windows keep most random rows moving until the cap
    y = np.cumsum(rng.normal(size=30)) + rng.standard_t(3, size=30)
    for window in (3, 5, 9, 21):
        passes = assert_fixpoints_match_reference(deletion_stack(y), window)
        assert (passes == basic.RRM_MAX_PASSES).any(), window


def test_odd_windows_near_the_largest_double_do_not_overflow(rng):
    # an odd window's median is its middle value, never a sum that overflows
    y = 1.7e308 * rng.uniform(0.9, 1.0, size=(4, 40))
    for window in range(3, 22, 2):
        h = window // 2
        interior = np.arange(h, 40 - h)
        with np.errstate(over="raise"):
            got = basic._running_median(y, window, interior)
        with np.errstate(over="ignore"):  # the even end windows overflow
            want = reference_running_median(y, window)[:, interior]
        assert_bits_equal(got, want, f"median {window}")
        assert np.isfinite(got).all()


def test_later_passes_recompute_only_columns_near_a_change(monkeypatch, rng):
    asked = []
    median = basic._running_median

    def recording(y, window, cols):
        asked.append(len(cols))
        return median(y, window, cols)

    monkeypatch.setattr(basic, "_running_median", recording)
    y = np.cumsum(rng.normal(size=60))
    basic.repeated_running_median(deletion_stack(y), 5)
    assert asked[0] == 60
    assert max(asked[2:]) < 60
    assert len(asked) == basic.RRM_MAX_PASSES


def _sse_values(gen: np.random.Generator) -> np.ndarray:
    special = [0.0, 1e-300, savgol._SSE_TINY, 2e-280, 1e-10, 1.0, 1e17, 1e300, np.inf]
    return np.concatenate((special, 10.0 ** gen.uniform(-12, 12, size=40)))


def test_steps_accepted_matches_reference_step(rng):
    # every (jump, m, d) an ADP window of at most 21 points tests, and a few
    # with no residual degree of freedom, over SSE pairs from 0 to inf
    sses = _sse_values(rng)
    sse_d, sse_up = (a.ravel() for a in np.meshgrid(sses, sses))
    for jump in (1, 2):
        for m in range(1, 22):
            for d in range(0, 7):
                want = [reference_step_accepted(float(a), float(b), jump, m, d)
                        for a, b in zip(sse_d, sse_up)]
                batched = savgol._steps_accepted(sse_d, sse_up, jump, m, np.full(len(sse_d), d))
                assert list(batched) == want, (jump, m, d)
                one = [bool(savgol._steps_accepted(a, b, jump, m, d))
                       for a, b in zip(sse_d[::97], sse_up[::97])]
                assert one == want[::97], (jump, m, d)


def test_choose_degrees_matches_the_scalar_choice(rng):
    # windows of 3 to 21 points, clipped ends included, mixed in one call, at
    # every (min_degree, max_degree) the catalog allows; degrees past m - 1
    # get SSEs of their own, which the scalar choice never reads
    special = np.array([0.0, 1e-300, savgol._SSE_TINY, 2e-280, np.nan, np.inf])
    for min_degree in range(0, 3):
        for max_degree in range(min_degree, 7):
            sses = 10.0 ** rng.uniform(-12, 12, size=(max_degree - min_degree + 1, 2000))
            sses[:, :1000] = -np.sort(-sses[:, :1000], axis=0)  # falling SSEs step further
            drawn = rng.random(sses.shape) < 0.2
            sses[drawn] = rng.choice(special, size=drawn.sum())
            sizes = rng.integers(3, 22, size=sses.shape[1])
            chosen = min_degree + savgol._choose_degrees(sses, min_degree, sizes)
            want = [degree_choice(lambda d: (d, sses[d - min_degree, r]),
                                  int(m), min_degree, max_degree)
                    for r, m in enumerate(sizes)]
            assert chosen.tolist() == want, (min_degree, max_degree)


# --- one LOOCV evaluator per (method, series) against the stateless path ---


SUP_BASSES = (6.5, 0.0, 10.0, 0.0, 2.25)  # a bass > 0 first: its enhancement must not
# leave the kept spans changed for the bass 0 after it
ADP_FRACTIONS = ((0.5, 0.0, 1.0), (0.5, 0.5, 0.5), (0.5, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.5))


def evaluator_specs(method: MethodId, n: int) -> list[SmootherSpec]:
    """SUP at several basses; ADP at several degree ranges per window."""
    if method is MethodId.SUP:
        return [SmootherSpec(method, (bass,)) for bass in SUP_BASSES]
    return [spec_at(method, n, fractions) for fractions in ADP_FRACTIONS]


def stateless_loocv(spec: SmootherSpec, series: TimeSeries) -> ev.LoocvMatrix:
    """The LOOCV matrix with nothing kept between calls: the plain smoother of
    each deletion series (SUP computes its bass-free stage inside the call)."""
    y = series.values()
    imp = deletion_imputations(y, series.day_index())
    return ev.LoocvMatrix(deletion_smooths(spec, y, imp), series)


def stateless_score(spec: SmootherSpec, loocv: ev.LoocvMatrix, objective: str):
    if objective == "combined":
        return ev.performance_index(spec, loocv)
    return {"aic": ev.aic(loocv, spec.k), "mae": ev.mae(loocv)}[objective]


def scored(evaluate):
    """The bit patterns of a fitness or of an index's (MAE, VAR, AIC), or the error type."""
    try:
        result = evaluate()
    except SmoothbenchError as exc:
        return type(exc)
    if isinstance(result, ev.PerformanceIndex):
        result = (result.mae, result.var, result.aic)
    return np.array(result, dtype=float).view(np.int64).tolist()


def assert_evaluator_matches_stateless(method: MethodId, series: TimeSeries) -> None:
    evaluator = ev.LoocvEvaluator(method, series)
    y = series.values()
    imp = deletion_imputations(y, series.day_index())
    with kept_sup_stages() as stages:
        for spec in evaluator_specs(method, len(series)):
            label = str(spec)
            loocv = evaluator.loocv(spec)
            diagonal = loocv.diagonal.copy()  # computed before the matrix is built
            want = stateless_loocv(spec, series)
            assert_bits_equal(diagonal, want.diagonal.copy(), label)
            assert_bits_equal(loocv.matrix, want.matrix, label)
            if method is MethodId.ADP:
                params = tuple(int(p) for p in spec.params)
                assert_bits_equal(diagonal, reference_adp_diagonal(y, imp, *params), label)
            for objective in ("aic", "mae", "combined"):
                read = None if objective == "combined" else objective
                got = scored(lambda: ev.evaluate_method(spec, evaluator, objective=read))
                assert got == scored(lambda: stateless_score(spec, want, objective)), (
                    label, objective)
    if method is MethodId.SUP:
        # one stage kept for every bass, still the stage of the deletion stack
        (stage,) = stages
        stack = smoothers.deletion_stack(y, imp)
        for got, want in zip(stage, supsmu.bass_free_stage(stack)):
            assert_bits_equal(got, want, "sup stage")


@contextlib.contextmanager
def kept_sup_stages():
    """The bass-free stages that ``deletion_loocv`` builds inside the block."""
    stages = []
    real = smoothers.bass_free_stage

    def keeping(stack):
        stages.append(real(stack))
        return stages[-1]

    with mock.patch.object(smoothers, "bass_free_stage", keeping):
        yield stages


@st.composite
def evaluator_series(draw):
    """A series of 5 to 36 points at a scale from 1e-3 to 1e17, some unevenly spaced."""
    n = draw(st.integers(5, 36))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = 10.0 ** draw(st.integers(-3, 17)) * (
        np.cumsum(gen.normal(size=n)) + gen.standard_t(3, size=n))
    if draw(st.booleans()):
        return TimeSeries.from_values(y)
    days = np.cumsum(gen.integers(1, 8, size=n))
    return TimeSeries.from_pairs(
        (date(2020, 1, 1) + timedelta(days=int(d)), float(v)) for d, v in zip(days, y)
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([MethodId.SUP, MethodId.ADP]), evaluator_series())
def test_evaluator_matches_the_stateless_path(method, series):
    assert_evaluator_matches_stateless(method, series)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("method", [MethodId.SUP, MethodId.ADP], ids=lambda m: m.value)
def test_evaluator_on_degenerate_inputs(method, name):
    assert_evaluator_matches_stateless(method, TimeSeries.from_values(DEGENERATE[name]))


@pytest.mark.parametrize("objective", ["aic", "mae", "combined"])
@pytest.mark.parametrize("method", [MethodId.SUP, MethodId.ADP], ids=lambda m: m.value)
@pytest.mark.parametrize("name", ["two_thirds_missing", "step_1e6", "random"])
def test_calibrate_through_an_evaluator_matches_the_stateless_path(
    method, objective, name, monkeypatch
):
    values = DEGENERATE.get(name)
    if values is None:
        values = np.cumsum(np.random.default_rng(6).normal(size=28)) + 3.0
    series = TimeSeries.from_values(values)
    config = GaConfig(population_size=10, iterations=3, seed=5)
    fast = calibrate(method, ev.LoocvEvaluator(method, series), config, objective)
    monkeypatch.setattr(ev, "build_loocv_matrix", lambda spec, _: stateless_loocv(spec, series))
    slow = calibrate(method, series, config, objective)
    assert fast.spec == slow.spec
    assert fast.evaluations == slow.evaluations
    assert_bits_equal(np.array(fast.history), np.array(slow.history), objective)


def _desk_series() -> TimeSeries:
    gen = np.random.default_rng(12)
    days = np.cumsum(gen.integers(1, 6, size=30))
    values = 50.0 + np.cumsum(gen.normal(size=30)) + 3.0 * gen.standard_t(3, size=30)
    return TimeSeries.from_pairs(
        (date(2021, 1, 1) + timedelta(days=int(d)), float(v)) for d, v in zip(days, values))


def test_one_sup_stage_per_evaluate_one(monkeypatch):
    shapes = []
    real = supsmu.bass_free_stage

    def counting(y):
        shapes.append(np.shape(y))
        return real(y)

    monkeypatch.setattr(supsmu, "bass_free_stage", counting)
    monkeypatch.setattr(smoothers, "bass_free_stage", counting)
    series = _desk_series()
    config = PipelineConfig(ga=GaConfig(population_size=20, iterations=3, seed=2))
    outcome, smooth = pl.evaluate_one(config, MethodId.SUP, series)
    assert outcome.ok and outcome.ga_evaluations > 10
    # one stage of the deletion stack, and the 1-D full-series smooth's own
    assert sorted(shapes) == [(30,), (30, 30)]


def test_each_adp_diagonal_fit_is_made_once(monkeypatch):
    # each (window, degree, shift) of the evaluator's table is fitted once over
    # the GA run and the final matrix; the matrix refits no diagonal (shift 0) key
    asked, made = [], []
    fit = savgol.WindowFits.fit

    def counting_fit(self, window, degree, shift):
        key = window, degree, shift
        if self.imp is not self.y:  # the evaluator's table, not a filter's
            asked.append(key)
            if key not in self._fits:
                made.append(key)
        return fit(self, window, degree, shift)

    monkeypatch.setattr(savgol.WindowFits, "fit", counting_fit)
    config = PipelineConfig(ga=GaConfig(population_size=30, iterations=3, seed=2))
    outcome, smooth = pl.evaluate_one(config, MethodId.ADP, _desk_series())
    assert outcome.ok and outcome.ga_evaluations > 10
    assert len(made) == len(set(made))
    # under aic the GA asks only for shift 0; the final matrix asks for every shift
    start = next(k for k, key in enumerate(asked) if key[2] != 0)
    ga_made = set(made[: made.index(asked[start])])
    matrix_diagonal = {key for key in asked[start:] if key[2] == 0}
    assert matrix_diagonal and matrix_diagonal <= ga_made
    assert len(asked[:start]) > 2 * len(ga_made)  # genomes share fits
    half = int(outcome.params[0]) // 2
    assert {key[2] for key in made[len(ga_made):]} == set(range(-half, half + 1)) - {0}


def test_evaluator_keeps_its_arrays_read_only(monkeypatch):
    series = TimeSeries.from_values(DEGENERATE["step_1e6"])
    inputs = []
    real = ev.deletion_loocv

    def keeping(method, y, imp):
        inputs.extend((y, imp))
        return real(method, y, imp)

    monkeypatch.setattr(ev, "deletion_loocv", keeping)
    sup = ev.LoocvEvaluator(MethodId.SUP, series)
    sup.loocv(SmootherSpec(MethodId.SUP, (4.0,)))
    assert len(inputs) == 2
    assert not any(values.flags.writeable for values in inputs)
    y, imp = inputs
    stage = supsmu.bass_free_stage(smoothers.deletion_stack(y, imp))
    assert not any(a.flags.writeable for a in stage)
    fits = savgol.WindowFits(y, imp)
    for shift in range(-3, 4):
        fits.filter(7, 0, 3, shift)
    assert len(fits._fits) == 4 * 7  # every degree at every shift of the window
    assert all(not a.flags.writeable for pair in fits._fits.values() for a in pair)
    with pytest.raises(ValueError, match="evaluator of sup"):
        sup.loocv(SmootherSpec(MethodId.ADP, (7.0, 0.0, 3.0)))
    with pytest.raises(ValueError, match="evaluator of sup"):
        build_loocv_matrix(SmootherSpec(MethodId.ADP, (7.0, 0.0, 3.0)), sup)
