"""An exact oracle for the LOOCV: the input times a power of two.

IEEE rounding commutes with multiplication by 2^k in the normal range, so a
computation made of sums, products, quotients, sorts and comparisons gives on
c * y, with c = 4^k, exactly c times its result on y (even powers keep square
roots exact).  The relation needs no reference values and reaches every fast
LOOCV form: a form that adds an absolute epsilon, or reads a result cached for
another series, breaks it.

It breaks by design where an absolute constant meets the values.  The inputs
stay clear of each such constant: the values are 1e-3 to 1e3 in magnitude and
c is at most 4^3, so no value nears ``pipeline.MAX_MAGNITUDE`` (1e150) or the
subnormals, no smoothed SUP residual that is not exactly 0 nears
``supsmu._TINY`` (1e-30), and no ADP window SSE that is not exactly 0 nears
``savgol._SSE_TINY`` (1e-280).  The methods whose own arithmetic is not
scale-free are held to a relative tolerance in ``NOT_SCALE_FREE``.
"""
from datetime import date, timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothbench.calibration import repair_genome, search_bounds
from smoothbench.errors import SmoothbenchError
from smoothbench.evaluation import build_loocv_matrix
from smoothbench.smoothers import MethodId, SmootherSpec
from smoothbench.timeseries import TimeSeries

# method: (relative tolerance, why c * y is not exactly c times the result on y).
# Each tolerance has margin over the largest deviation measured on 3610 series
# of ``scaled_series``, at default and random specs: 5.7e-10 for ARI and
# 1.4e-15 for KAL.  KAL's grid argmax can flip on a near tie, which moves it
# further (4.3e-10 on one sine-shaped series), so the examples are fixed.
NOT_SCALE_FREE = {
    MethodId.ARI: (2.0e-9, "its AR design has an unscaled intercept column"),
    MethodId.KAL: (3.0e-15, "its variance grid is log10 of the sample variance"),
}


@st.composite
def scaled_series(draw):
    """Dates, a series of 12 to 40 values of 1e-3 to 1e3, some unevenly
    spaced, and a scale c = 4^k with |k| <= 3."""
    n = draw(st.integers(12, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a level of 1e-2 to 1e2 times a log-scale walk within a decade of it
    walk = np.cumsum(gen.normal(scale=0.1, size=n)) + gen.normal(scale=0.1, size=n)
    y = 10.0 ** (draw(st.floats(-2.0, 2.0)) + np.clip(walk, -1.0, 1.0))
    if draw(st.booleans()):
        days = np.arange(n)
    else:
        days = np.cumsum(gen.integers(1, 8, size=n))
    start = date(2021, 1, 1)
    dates = [start + timedelta(days=int(d)) for d in days]
    scale = 4.0 ** draw(st.integers(-3, 3))
    return dates, y, scale


def spec_in_box(method: MethodId, n: int, fractions) -> SmootherSpec:
    """The spec the GA would make of a genome at ``fractions`` of the length-n box."""
    bounds = search_bounds(method, n)
    raw = [b.lo + f * (b.hi - b.lo) for b, f in zip(bounds, fractions)]
    return SmootherSpec(method, repair_genome(method, bounds, raw))


def loocv_of(spec: SmootherSpec, dates, values):
    """The LOOCV diagonal and matrix, or the error type."""
    try:
        loocv = build_loocv_matrix(spec, TimeSeries.from_pairs(zip(dates, values)))
        diagonal = loocv.diagonal.copy()  # computed before the matrix is built
        return diagonal, loocv.matrix
    except SmoothbenchError as exc:
        return type(exc)


def assert_scaled(got: np.ndarray, want: np.ndarray, method: MethodId, label: str) -> None:
    if method in NOT_SCALE_FREE:
        np.testing.assert_allclose(got, want, rtol=NOT_SCALE_FREE[method][0], atol=0,
                                   err_msg=label)
    else:
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=label)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scaled_series(), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_loocv_of_a_scaled_series_is_the_scaled_loocv(series, fractions):
    dates, y, scale = series
    for method in MethodId:
        spec = spec_in_box(method, len(y), fractions)
        label = f"{spec} scale={scale}"
        base = loocv_of(spec, dates, y)
        scaled = loocv_of(spec, dates, scale * y)
        if not isinstance(base, tuple):
            assert scaled is base, label
            continue
        assert isinstance(scaled, tuple), (label, scaled)
        for got, want in zip(scaled, base):
            assert_scaled(got, scale * want, method, label)
