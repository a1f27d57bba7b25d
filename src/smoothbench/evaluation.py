"""Leave-one-out cross-validation engine and performance indices.

For a series of length T the LOOCV matrix holds one smoothed series per
column: column t is computed from the input with entry t deleted and refilled
by linear interpolation, so it never sees the true x_t.  Three indices are
read off it: the mean absolute error of the diagonal against the source, the
summed per-time sample variance across columns, and an information criterion
on the diagonal residuals penalized by the method's nominal parameter count
(the penalty enters with a minus sign; a switch restores the textbook plus
sign).

The diagonal comes first.  MAE and AIC read only the diagonal, and a linear
method or ADP computes it without the full matrix, so a GA that scores
genomes by AIC or MAE never builds a T x T matrix.  The full matrix is built
when the VAR index or the confidence band first reads it.  ADP builds its
diagonal and matrix from one table of window fits, keyed by (window, degree,
shift), not from T deletion smooths.

A :class:`LoocvEvaluator` holds one method's LOOCV inputs on one series: the
values, their deletion imputations, the deletion stack and the method's
``loocv_state`` (SUP's bass-free stage, ADP's table of window fits).  Each
is computed once, when first read, and serves every parameter vector scored
through the evaluator, so a GA run and the final LOOCV build compute them
once.  It stands in for its series wherever this module takes one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import EvaluationFailure, InsufficientData
from .smoothers import (
    MethodId,
    SmootherSpec,
    deletion_loocv,
    deletion_stack,
    linear_parts,
    loocv_state,
)
from .smoothers.windows import read_only
# perfbench's traced mode wraps these two names here, so they stay importable
from .smoothers import apply_to_values, linear_operator  # noqa: F401
from .timeseries import TimeSeries, percentile

ZERO_RESIDUAL_SSE = 1e-300


class LoocvMatrix:
    """T x T matrix of single-deletion smooths, its diagonal and the source series.

    ``diagonal`` is held from the start.  A matrix made by :meth:`deferred`
    is built the first time ``matrix`` is read and then kept; its builder is
    dropped, with whatever operator or deletion inputs the builder held.
    ``source`` may be an evaluator, which stands for its series.
    """

    def __init__(self, matrix, source: "TimeSeries | LoocvEvaluator"):
        m = np.asarray(matrix, dtype=float)
        t = len(source)
        if m.shape != (t, t):
            raise ValueError(f"matrix shape {m.shape} does not match series length {t}")
        self.source = source.series if isinstance(source, LoocvEvaluator) else source
        self.diagonal = np.diag(m)
        self._matrix = m
        self._build: "Callable[[], np.ndarray] | None" = None

    @classmethod
    def deferred(
        cls, source: TimeSeries, diagonal: np.ndarray, build: Callable[[], np.ndarray]
    ) -> "LoocvMatrix":
        """The matrix that ``build()`` returns, whose diagonal is ``diagonal``."""
        loocv = cls.__new__(cls)
        loocv.source = source
        loocv.diagonal = diagonal
        loocv._matrix = None
        loocv._build = build
        return loocv

    @property
    def matrix(self) -> np.ndarray:
        if self._build is not None:
            self._matrix = self._build()
            self._build = None
        return self._matrix

    @property
    def size(self) -> int:
        return len(self.diagonal)


@dataclass(frozen=True)
class PerformanceIndex:
    """(MAE, VAR, AIC) triple for one calibrated method on one dataset."""

    method: "str | None"
    k: int
    mae: float
    var: float
    aic: float
    zero_residual: bool = False

    def __post_init__(self):
        _check_diagonal_indices(self.mae, self.aic)
        if not (math.isfinite(self.var) and self.var >= 0):
            raise EvaluationFailure(f"VAR must be finite and nonnegative, got {self.var}")

    def features(self) -> tuple[float, float, float]:
        return (self.var, self.mae, self.aic)


def _check_diagonal_indices(mae_value: float, aic_value: float) -> None:
    if not (math.isfinite(mae_value) and mae_value >= 0):
        raise EvaluationFailure(f"MAE must be finite and nonnegative, got {mae_value}")
    if math.isnan(aic_value):
        raise EvaluationFailure("AIC is NaN")


def deletion_imputations(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Value that linear imputation puts at slot i when x_i alone is deleted.

    Interior slots interpolate between their neighbours weighted by calendar
    distance; boundary slots copy the nearest remaining value.
    """
    imp = np.empty(len(y))
    imp[0] = y[1]
    imp[-1] = y[-2]
    dt_prev = t[1:-1] - t[:-2]
    dt_next = t[2:] - t[1:-1]
    imp[1:-1] = (y[:-2] * dt_next + y[2:] * dt_prev) / (dt_prev + dt_next)
    return imp


class LoocvEvaluator:
    """The LOOCV of one method on one gap-free series, for any parameter vector.

    ``loocv(spec)`` is the LOOCV matrix of ``spec``, the same bits as
    without the evaluator.  The values, their deletion imputations, the
    deletion stack and the method's ``loocv_state`` are computed when first
    read, kept read-only and shared by every later call; they live as long
    as the evaluator.  A series with a gap raises InsufficientData on each
    call, as the LOOCV of such a series does.
    """

    def __init__(self, method: MethodId, series: TimeSeries):
        self.method = MethodId(method)
        self.series = series
        self._gap_free = series.is_gap_free()

    @classmethod
    def of(cls, method: MethodId, source: "TimeSeries | LoocvEvaluator") -> "LoocvEvaluator":
        """``source`` if it is an evaluator, else a new evaluator of ``method`` on it."""
        return source if isinstance(source, cls) else cls(method, source)

    def __len__(self) -> int:
        return len(self.series)

    @cached_property
    def y(self) -> np.ndarray:
        return read_only(self.series.values())

    @cached_property
    def imp(self) -> np.ndarray:
        return read_only(deletion_imputations(self.y, self.series.day_index()))

    @cached_property
    def stack(self) -> np.ndarray:
        return read_only(deletion_stack(self.y, self.imp))

    @cached_property
    def state(self) -> object:
        return loocv_state(self.method, self.y, self.imp)

    def loocv(self, spec: SmootherSpec) -> LoocvMatrix:
        """Delete, impute and re-smooth once per sample; columns stack the results.

        Column t is the smoother applied to the series with x_t replaced by
        its deletion imputation.  For a linear method (``linear_parts``
        gives its smooth, operator diagonal and operator builder) that is
        computed as a rank-one update of one application (same map, fewer
        passes).  ADP's ``deletion_loocv`` gives its diagonal and a builder
        of the matrix from the window fits of its ``loocv_state``.  The
        other data-adaptive methods smooth the deletion stack in one call.
        The diagonal is computed now; for the linear methods and ADP the
        matrix, and with it a linear method's dense operator, waits until it
        is read.
        """
        if spec.method is not self.method:
            raise ValueError(f"an evaluator of {self.method.value} cannot score {spec}")
        if not self._gap_free:
            raise InsufficientData("LOOCV input must be gap-free; impute first")
        y = self.y
        parts = linear_parts(spec, y)  # raises SeriesTooShort first
        imp = self.imp
        if parts is not None:
            # the direct algorithm gives the base application (bit-faithful for
            # e.g. constants); the operator supplies the per-deletion correction,
            # elementwise as in the matrix
            base, operator_diagonal, operator_of = parts
            step = imp - y

            def matrix() -> np.ndarray:
                # base[:, None] + operator * step[None, :], with one T x T temporary
                out = operator_of() * step[None, :]
                out += base[:, None]
                return out

            return LoocvMatrix.deferred(self.series, base + operator_diagonal * step, matrix)
        fast = deletion_loocv(spec, y, imp, self.state)
        if fast is not None:
            return LoocvMatrix.deferred(self.series, *fast)
        return LoocvMatrix(_deletion_smooths(spec, y, imp, self.stack, self.state), self.series)


def build_loocv_matrix(
    spec: SmootherSpec, series: "TimeSeries | LoocvEvaluator"
) -> LoocvMatrix:
    """``spec``'s LOOCV matrix on ``series``, or on the series of an evaluator
    of ``spec.method`` (see ``LoocvEvaluator.loocv``)."""
    return LoocvEvaluator.of(spec.method, series).loocv(spec)


def _deletion_smooths(
    spec: SmootherSpec,
    y: np.ndarray,
    imp: np.ndarray,
    stack: "np.ndarray | None" = None,
    state: object = None,
) -> np.ndarray:
    """Column i: the smooth of ``y`` with ``y[i]`` replaced by ``imp[i]``.

    ``stack`` is ``deletion_stack(y, imp)`` and ``state`` the method's
    ``loocv_state``, where the caller keeps them.
    """
    stack = deletion_stack(y, imp) if stack is None else stack
    # the copy keeps the matrix C-contiguous: var_index sums its rows in
    # memory order, and a transposed view would change the last digits
    return np.ascontiguousarray(apply_to_values(spec, stack, state).T)


def mae(loocv: LoocvMatrix) -> float:
    resid = loocv.diagonal - loocv.source.values()
    return float(np.mean(np.abs(resid)))


def var_index(loocv: LoocvMatrix) -> float:
    # an overflowing VAR is inf, which PerformanceIndex rejects
    with np.errstate(over="ignore"):
        return float(np.sum(np.var(loocv.matrix, axis=1, ddof=1)))


def aic(loocv: LoocvMatrix, k: int, standard_sign: bool = False) -> float:
    """T*ln(SSE/T) with the 2k penalty subtracted (added when standard_sign)."""
    n = loocv.size
    resid = loocv.diagonal - loocv.source.values()
    with np.errstate(over="ignore"):  # an overflowing SSE is inf, and so is the AIC
        sse = float(resid @ resid)
    penalty = 2.0 * k
    if sse < ZERO_RESIDUAL_SSE:
        return float("-inf")
    value = n * math.log(sse / n)
    return value + penalty if standard_sign else value - penalty


def confidence_band(
    loocv: LoocvMatrix, level: float = 0.95
) -> tuple[TimeSeries, TimeSeries]:
    """Pointwise percentile envelope of the LOOCV replicates."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    lower = percentile(loocv.matrix, (1.0 - level) / 2.0)
    upper = percentile(loocv.matrix, (1.0 + level) / 2.0)
    return loocv.source.with_values(lower), loocv.source.with_values(upper)


def performance_index(
    spec: SmootherSpec, loocv: LoocvMatrix, standard_aic_sign: bool = False
) -> PerformanceIndex:
    """All three indices of one LOOCV matrix, k taken from the method catalog."""
    aic_value = aic(loocv, spec.k, standard_sign=standard_aic_sign)
    return PerformanceIndex(
        method=spec.method.value,
        k=spec.k,
        mae=mae(loocv),
        var=var_index(loocv),
        aic=aic_value,
        zero_residual=aic_value == -math.inf,
    )


def evaluate_method(
    spec: SmootherSpec,
    series: "TimeSeries | LoocvEvaluator",
    standard_aic_sign: bool = False,
    objective: "str | None" = None,
) -> "PerformanceIndex | float":
    """LOOCV build plus all three indices, or only the one ``objective`` names.

    ``series`` may be an evaluator of ``spec.method``, which keeps its LOOCV
    inputs across calls.  ``objective`` "aic" or "mae" returns that index
    alone, read off the diagonal and checked as PerformanceIndex checks it;
    the full matrix is then never built, and VAR is neither computed nor
    checked.
    """
    loocv = build_loocv_matrix(spec, series)
    if objective is None:
        return performance_index(spec, loocv, standard_aic_sign)
    values = {"mae": mae(loocv), "aic": aic(loocv, spec.k, standard_sign=standard_aic_sign)}
    _check_diagonal_indices(values["mae"], values["aic"])
    return values[objective]
