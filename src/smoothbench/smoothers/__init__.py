"""The thirteen-method smoothing catalog and its dispatch front door."""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..errors import InsufficientData, SeriesTooShort
from ..timeseries import TimeSeries
from .autoregressive import ar_smoother
from .basic import repeated_running_median, simple_moving_average, tukey_3r
from .catalog import (
    K_PARAMS,
    PARAM_SPECS,
    PARAMETER_FREE_METHODS,
    PARAMETRIC_METHODS,
    MethodId,
    ParamSpec,
    SmootherSpec,
    constrain,
    default_spec,
    effective_params,
    make_spec,
    required_length,
    validate_spec,
)
from .fourier import fourier_lowpass
from .gam import gam_matrix_operator, gam_smoother
from .kalman import fit_kalman_local_level
from .kernel import kernel_operator, kernel_parts, kernel_regression
from .localpoly import local_quadratic, local_quadratic_operator, local_quadratic_parts
from .savgol import (
    adaptive_degree_diagonal,
    adaptive_degree_filter,
    savgol_operator,
    savitzky_golay,
)
from .spline import smoothing_spline
from .supsmu import super_smoother

__all__ = [
    "K_PARAMS",
    "PARAM_SPECS",
    "PARAMETER_FREE_METHODS",
    "PARAMETRIC_METHODS",
    "MethodId",
    "ParamSpec",
    "SmootherSpec",
    "apply_smoother",
    "apply_to_values",
    "constrain",
    "default_spec",
    "deletion_diagonal",
    "effective_params",
    "linear_operator",
    "linear_parts",
    "make_spec",
    "required_length",
    "validate_spec",
]


class _Row(NamedTuple):
    """How one method is run: ``smoother(y, *params)``, ``operator(n, *params)``,
    ``parts(y, *params)`` and ``diagonal(y, imp, *params)``."""

    smoother: Callable[..., np.ndarray]
    stacked: bool  # the smoother takes a (B, T) stack in one call
    operator: "Callable[..., np.ndarray | None] | None" = None  # None: nonlinear
    # a linear method whose smooth, operator diagonal and operator share one
    # geometry: (smoother(y), diag(S), a builder of S), all from one build
    parts: "Callable[..., tuple] | None" = None
    # a nonlinear method whose LOOCV diagonal is cheaper than its T deletion smooths
    diagonal: "Callable[..., np.ndarray] | None" = None


def _on_identity(smoother: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    # row j of smoother(I) is S applied to e_j, a column of S; C order keeps
    # the summation order of the LOOCV indices
    return lambda n, *params: np.ascontiguousarray(smoother(np.eye(n), *params).T)


# One row per method.  SGF, POL and GAM keep hand-built operators, which their
# smoother on unit vectors misses by up to 6.3e-14, 3.5e-16 and 7.0e-15, enough
# to change reported indices; KER keeps one because a row-exact derivation is
# ~4x slower at T=365.  POL and KER also give ``parts``, so that their LOOCV
# build makes one local design (POL) or one weight matrix (KER).
_METHODS: dict[MethodId, _Row] = {
    MethodId.TUK: _Row(tukey_3r, True),
    MethodId.KAL: _Row(lambda y: fit_kalman_local_level(y)[0], True),
    MethodId.FFT: _Row(fourier_lowpass, False),
    MethodId.SPL: _Row(smoothing_spline, True, _on_identity(smoothing_spline)),
    MethodId.KER: _Row(kernel_regression, False, kernel_operator, kernel_parts),
    MethodId.SMA: _Row(simple_moving_average, True, _on_identity(simple_moving_average)),
    MethodId.RRM: _Row(repeated_running_median, True),
    MethodId.SUP: _Row(super_smoother, True),
    MethodId.POL: _Row(local_quadratic, False, local_quadratic_operator, local_quadratic_parts),
    MethodId.SGF: _Row(savitzky_golay, False, savgol_operator),
    MethodId.ARI: _Row(ar_smoother, False),
    MethodId.ADP: _Row(adaptive_degree_filter, True, diagonal=adaptive_degree_diagonal),
    MethodId.GAM: _Row(gam_smoother, True, gam_matrix_operator),
}


def _checked_params(spec: SmootherSpec, n: int) -> tuple:
    """The spec's parameters (int where the ParamSpec is integer), once n is long enough."""
    req = required_length(spec)
    if n < req:
        raise SeriesTooShort(
            f"{spec.method.value} with these parameters needs at least {req} points, got {n}"
        )
    return tuple(int(p) if b.integer else p for b, p in zip(spec.bounds, spec.params))


def apply_to_values(spec: SmootherSpec, y: np.ndarray) -> np.ndarray:
    """Run a smoother over gap-free values: one series (T,) or a stack (B, T).

    Each row of a stack is smoothed on its own and the result has the shape
    of ``y``; row b equals the 1-D call on ``y[b]`` bit for bit.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected values of shape (T,) or (B, T), got {y.shape}")
    params = _checked_params(spec, y.shape[-1])
    row = _METHODS[spec.method]
    if y.ndim == 1 or row.stacked:
        return row.smoother(y, *params)
    out = np.empty_like(y)
    for b, values in enumerate(y):
        out[b] = row.smoother(values, *params)
    return out


def linear_operator(spec: SmootherSpec, n: int) -> "np.ndarray | None":
    """Dense smoother matrix S with S @ y == apply_to_values(spec, y), when linear.

    Several catalog methods are linear maps of the input for a fixed spec;
    their LOOCV matrices then follow from rank-one updates of a single
    application.  Returns None for the data-adaptive (nonlinear) methods.
    """
    params = _checked_params(spec, n)
    build = _METHODS[spec.method].operator
    return None if build is None else build(n, *params)


def linear_parts(
    spec: SmootherSpec, y: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]] | None":
    """``apply_to_values(spec, y)``, the diagonal of ``linear_operator(spec,
    len(y))`` and a builder of that operator, computed from one shared geometry.

    Each is bit for bit what the two front doors give; the dense operator is
    formed only when the builder is called.  Returns None for a method
    without such a form (its operator, if any, comes from linear_operator).
    """
    params = _checked_params(spec, len(y))
    build = _METHODS[spec.method].parts
    return None if build is None else build(y, *params)


def deletion_diagonal(spec: SmootherSpec, y: np.ndarray, imp: np.ndarray) -> "np.ndarray | None":
    """Entry i of the smooth of ``y`` with ``y[i]`` replaced by ``imp[i]``, for every i.

    This is the diagonal of the LOOCV matrix, bit for bit, computed without
    the T deletion smooths.  Returns None for a method without such a form.
    """
    params = _checked_params(spec, len(y))
    build = _METHODS[spec.method].diagonal
    return None if build is None else build(y, imp, *params)


def apply_smoother(spec: SmootherSpec, series: TimeSeries) -> TimeSeries:
    """Smooth a gap-free series, preserving length and timestamps."""
    if not series.is_gap_free():
        raise InsufficientData("series contains missing values; impute before smoothing")
    return series.with_values(apply_to_values(spec, series.values()))
