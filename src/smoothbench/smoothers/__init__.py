"""The thirteen-method smoothing catalog and its dispatch front door."""
from __future__ import annotations

import numpy as np

from ..errors import InsufficientData, SeriesTooShort
from ..timeseries import TimeSeries
from .autoregressive import ar_smoother
from .basic import repeated_running_median, simple_moving_average, tukey_3r
from .catalog import (
    DEFAULT_PARAMS,
    K_PARAMS,
    PARAM_SPECS,
    PARAMETER_FREE_METHODS,
    PARAMETRIC_METHODS,
    MethodId,
    ParamSpec,
    SmootherSpec,
    default_spec,
    make_spec,
    required_length,
    validate_spec,
)
from .fourier import fourier_lowpass
from .gam import gam_matrix_operator, gam_smoother
from .kalman import fit_kalman_local_level
from .kernel import kernel_operator, kernel_regression
from .localpoly import local_quadratic, local_quadratic_operator
from .savgol import adaptive_degree_filter, savgol_operator, savitzky_golay
from .spline import smoothing_spline
from .supsmu import super_smoother

__all__ = [
    "DEFAULT_PARAMS",
    "K_PARAMS",
    "PARAM_SPECS",
    "PARAMETER_FREE_METHODS",
    "PARAMETRIC_METHODS",
    "MethodId",
    "ParamSpec",
    "SmootherSpec",
    "apply_smoother",
    "apply_to_values",
    "default_spec",
    "linear_operator",
    "make_spec",
    "required_length",
    "validate_spec",
]


# methods whose smoother takes a (B, T) stack in one call; the others are
# applied row by row
_STACKED_METHODS = frozenset(
    {MethodId.SMA, MethodId.SPL, MethodId.RRM, MethodId.TUK, MethodId.ADP, MethodId.SUP}
)


def apply_to_values(spec: SmootherSpec, y: np.ndarray) -> np.ndarray:
    """Run a smoother over gap-free values: one series (T,) or a stack (B, T).

    Each row of a stack is smoothed on its own and the result has the shape
    of ``y``; row b equals the 1-D call on ``y[b]`` bit for bit.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected values of shape (T,) or (B, T), got {y.shape}")
    n = y.shape[-1]
    req = required_length(spec)
    if n < req:
        raise SeriesTooShort(
            f"{spec.method.value} with these parameters needs at least {req} points, got {n}"
        )
    if y.ndim == 1 or spec.method in _STACKED_METHODS:
        return _smooth(spec, y)
    out = np.empty_like(y)
    for b, row in enumerate(y):
        out[b] = _smooth(spec, row)
    return out


def _smooth(spec: SmootherSpec, y: np.ndarray) -> np.ndarray:
    p = spec.params
    method = spec.method
    if method is MethodId.SMA:
        return simple_moving_average(y, int(p[0]))
    if method is MethodId.RRM:
        return repeated_running_median(y, int(p[0]))
    if method is MethodId.TUK:
        return tukey_3r(y)
    if method is MethodId.KAL:
        return fit_kalman_local_level(y)[0]
    if method is MethodId.FFT:
        return fourier_lowpass(y)
    if method is MethodId.SPL:
        return smoothing_spline(y, p[0])
    if method is MethodId.KER:
        return kernel_regression(y, p[0])
    if method is MethodId.SUP:
        return super_smoother(y, p[0])
    if method is MethodId.POL:
        return local_quadratic(y, p[0])
    if method is MethodId.SGF:
        return savitzky_golay(y, int(p[0]), int(p[1]))
    if method is MethodId.ARI:
        return ar_smoother(y, int(p[0]), int(p[1]))
    if method is MethodId.ADP:
        return adaptive_degree_filter(y, int(p[0]), int(p[1]), int(p[2]))
    if method is MethodId.GAM:
        return gam_smoother(y, int(p[0]), p[1], int(p[2]), int(p[3]))
    raise AssertionError(f"unhandled method {method}")  # pragma: no cover


def linear_operator(spec: SmootherSpec, n: int) -> "np.ndarray | None":
    """Dense smoother matrix S with S @ y == apply_to_values(spec, y), when linear.

    Several catalog methods are linear maps of the input for a fixed spec;
    their LOOCV matrices then follow from rank-one updates of a single
    application.  Returns None for the data-adaptive (nonlinear) methods.

    SMA and SPL are their smoother applied to the identity.  SGF, POL and GAM
    keep hand-built operators, which their smoother on unit vectors misses by
    up to 6.3e-14, 3.5e-16 and 7.0e-15, enough to change reported indices;
    KER keeps one because a row-exact derivation is ~4x slower at T=365.
    """
    if n < required_length(spec):
        raise SeriesTooShort(
            f"{spec.method.value} with these parameters needs at least "
            f"{required_length(spec)} points, got {n}"
        )
    p = spec.params
    method = spec.method
    if method in (MethodId.SMA, MethodId.SPL):
        # row j is S applied to e_j, a column of S; C order keeps the
        # summation order of the LOOCV indices
        return np.ascontiguousarray(apply_to_values(spec, np.eye(n)).T)
    if method is MethodId.KER:
        return kernel_operator(n, p[0])
    if method is MethodId.SGF:
        return savgol_operator(n, int(p[0]), int(p[1]))
    if method is MethodId.POL:
        return local_quadratic_operator(n, p[0])
    if method is MethodId.GAM and int(p[3]) == 0 and int(p[0]) <= n:
        return gam_matrix_operator(n, int(p[0]), p[1])
    return None


def apply_smoother(spec: SmootherSpec, series: TimeSeries) -> TimeSeries:
    """Smooth a gap-free series, preserving length and timestamps."""
    if not series.is_gap_free():
        raise InsufficientData("series contains missing values; impute before smoothing")
    return series.with_values(apply_to_values(spec, series.values()))
