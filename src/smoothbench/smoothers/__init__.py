"""The thirteen-method smoothing catalog and its dispatch front door."""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

from ..errors import EvaluationFailure, InsufficientData, SeriesTooShort
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
from .kernel import kernel_parts, kernel_regression
from .localpoly import local_quadratic, local_quadratic_parts
from .savgol import (
    WindowFits,
    adaptive_degree_filter,
    adaptive_degree_loocv,
    savgol_operator,
    savitzky_golay,
)
from .spline import smoothing_spline
from .supsmu import bass_free_stage, super_smoother

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
    "deletion_loocv",
    "deletion_stack",
    "effective_params",
    "linear_operator",
    "linear_parts",
    "loocv_state",
    "make_spec",
    "required_length",
    "validate_spec",
]


class _Row(NamedTuple):
    """How one method is run: ``smoother(y, *params)``, ``parts(y, *params)``
    and ``loocv(y, imp, *params)``.

    ADP's ``loocv`` gives its LOOCV diagonal and matrix from its ``state``,
    one table of window fits keyed by (window, degree, shift); its smoother
    takes one series.  A method with a ``state`` computes once per series
    what its LOOCV reads and no parameter changes: ``state(y, imp)``, which
    its smoother of the deletion stack (SUP) may take, and its ``loocv``
    (ADP) takes, as a last argument.
    """

    smoother: Callable[..., np.ndarray]
    stacked: bool  # the smoother takes a (B, T) stack in one call
    # a linear method: (smoother(y), diag(S), a builder of S) from one build,
    # or None where S depends on the data (GAM with auto_penalty)
    parts: "Callable[..., tuple | None] | None" = None
    # a nonlinear method whose LOOCV matrix needs no T deletion smooths:
    # (LOOCV diagonal, a builder of the LOOCV matrix)
    loocv: "Callable[..., tuple] | None" = None
    # the parameter-free part of the LOOCV of y, whose deletion imputations are imp
    state: "Callable[[np.ndarray, np.ndarray], object] | None" = None


def _on_identity(smoother: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    # row j of smoother(I) is S applied to e_j, a column of S; C order keeps
    # the summation order of the LOOCV indices
    return lambda n, *params: np.ascontiguousarray(smoother(np.eye(n), *params).T)


def _dense_parts(
    smoother: Callable[..., np.ndarray],
    operator: "Callable[..., np.ndarray | None] | None" = None,
) -> Callable[..., "tuple | None"]:
    """``parts`` over a dense operator ``operator(n, *params)`` (by default
    the smoother on the identity), which it builds once per call."""
    operator = operator or _on_identity(smoother)

    def parts(y: np.ndarray, *params) -> "tuple | None":
        s = operator(len(y), *params)
        return None if s is None else (smoother(y, *params), np.diagonal(s), lambda: s)

    return parts


# One row per method.  SGF, POL and GAM build their operators by hand, which
# their smoother on unit vectors misses by up to 6.3e-14, 3.5e-16 and 7.0e-15,
# enough to change reported indices; KER builds its own because a row-exact
# derivation is ~4x slower at T=365.  POL and KER form the smooth and the
# operator from one local design (POL) or one weight matrix (KER).
_METHODS: dict[MethodId, _Row] = {
    MethodId.TUK: _Row(tukey_3r, True),
    MethodId.KAL: _Row(lambda y: fit_kalman_local_level(y)[0], True),
    MethodId.FFT: _Row(fourier_lowpass, False),
    MethodId.SPL: _Row(smoothing_spline, True, _dense_parts(smoothing_spline)),
    MethodId.KER: _Row(kernel_regression, False, kernel_parts),
    MethodId.SMA: _Row(simple_moving_average, True, _dense_parts(simple_moving_average)),
    MethodId.RRM: _Row(repeated_running_median, True),
    MethodId.SUP: _Row(
        super_smoother, True, state=lambda y, imp: bass_free_stage(deletion_stack(y, imp))),
    MethodId.POL: _Row(local_quadratic, False, local_quadratic_parts),
    MethodId.SGF: _Row(savitzky_golay, False, _dense_parts(savitzky_golay, savgol_operator)),
    MethodId.ARI: _Row(ar_smoother, False),
    MethodId.ADP: _Row(
        adaptive_degree_filter, False, loocv=adaptive_degree_loocv, state=WindowFits),
    MethodId.GAM: _Row(gam_smoother, True, _dense_parts(gam_smoother, gam_matrix_operator)),
}


def _checked_params(spec: SmootherSpec, n: int) -> tuple:
    """The spec's parameters (int where the ParamSpec is integer), once n is long enough."""
    req = required_length(spec)
    if n < req:
        raise SeriesTooShort(
            f"{spec.method.value} with these parameters needs at least {req} points, got {n}"
        )
    return tuple(int(p) if b.integer else p for b, p in zip(spec.bounds, spec.params))


def apply_to_values(spec: SmootherSpec, y: np.ndarray, state: object = None) -> np.ndarray:
    """Run a smoother over gap-free values: one series (T,) or a stack (B, T).

    Each row of a stack is smoothed on its own and the result has the shape
    of ``y``; row b equals the 1-D call on ``y[b]`` bit for bit.  A float
    overflow inside the smoother (Python's ``OverflowError``, or numpy's
    ``FloatingPointError`` under ``np.errstate(raise)``) is an
    ``EvaluationFailure``: the values are beyond the method's arithmetic.
    ``state``, when ``y`` is the deletion stack of (y0, imp), may be
    ``loocv_state(spec.method, y0, imp)``; it changes no bit of the result.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected values of shape (T,) or (B, T), got {y.shape}")
    params = _checked_params(spec, y.shape[-1])
    row = _METHODS[spec.method]
    if state is not None:
        params += (state,)
    with _beyond_arithmetic(spec.method):
        if y.ndim == 1 or row.stacked:
            return row.smoother(y, *params)
        out = np.empty_like(y)
        for b, values in enumerate(y):
            out[b] = row.smoother(values, *params)
        return out


@contextmanager
def _beyond_arithmetic(method: MethodId):
    try:
        yield
    except (OverflowError, FloatingPointError) as exc:
        raise EvaluationFailure(f"{method.value} failed on these values: {exc}") from exc


def linear_operator(spec: SmootherSpec, n: int) -> "np.ndarray | None":
    """Dense smoother matrix S with S @ y == apply_to_values(spec, y), when linear.

    The builder that ``linear_parts`` returns for a length-n series; None
    where that is None.
    """
    parts = linear_parts(spec, np.zeros(n))
    return None if parts is None else parts[2]()


def linear_parts(
    spec: SmootherSpec, y: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]] | None":
    """For a linear method, ``apply_to_values(spec, y)``, the diagonal of its
    dense smoother matrix S and a builder of S, from one shared build.

    The smooth is bit for bit what ``apply_to_values`` gives.  POL and KER
    form S only when the builder is called; the others build it here.
    Returns None for a nonlinear method, and for GAM with ``auto_penalty``,
    whose GCV-chosen penalty depends on y.
    """
    params = _checked_params(spec, len(y))
    build = _METHODS[spec.method].parts
    return None if build is None else build(y, *params)


def deletion_stack(y: np.ndarray, imp: np.ndarray) -> np.ndarray:
    """The T deletion series of ``y``: row i is ``y`` with ``y[i]`` replaced by ``imp[i]``."""
    stack = np.tile(y, (len(y), 1))
    np.fill_diagonal(stack, imp)
    return stack


def loocv_state(method: MethodId, y: np.ndarray, imp: np.ndarray) -> object:
    """What every LOOCV of ``method`` on ``y`` (deletion imputations ``imp``)
    reads and no parameter changes, or None for a method without it.

    SUP's is the bass-free stage of the deletion stack; ADP's the table of
    window fits that its LOOCV diagonal and matrix read, filled as they are
    asked for.  Pass it to ``apply_to_values`` with the deletion stack, or
    to ``deletion_loocv``.
    """
    build = _METHODS[method].state
    if build is None:
        return None
    with _beyond_arithmetic(method):
        return build(y, imp)


def deletion_loocv(
    spec: SmootherSpec, y: np.ndarray, imp: np.ndarray, state: object
) -> "tuple[np.ndarray, Callable[[], np.ndarray]] | None":
    """The LOOCV diagonal and a builder of the LOOCV matrix, without T deletion smooths.

    Column i of the matrix is the smooth of ``y`` with ``y[i]`` replaced by
    ``imp[i]``, bit for bit, and the diagonal is its entry i.  Returns None
    for a method without such a form.  ``state`` is
    ``loocv_state(spec.method, y, imp)``.
    """
    params = _checked_params(spec, len(y))
    build = _METHODS[spec.method].loocv
    return None if build is None else build(y, imp, *params, state)


def apply_smoother(spec: SmootherSpec, series: TimeSeries) -> TimeSeries:
    """Smooth a gap-free series, preserving length and timestamps."""
    if not series.is_gap_free():
        raise InsufficientData("series contains missing values; impute before smoothing")
    return series.with_values(apply_to_values(spec, series.values()))
