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
when the VAR index or the confidence band first reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationFailure, InsufficientData
from .smoothers import SmootherSpec, deletion_diagonal, linear_parts
# perfbench's traced mode wraps these two names here, so they stay importable
from .smoothers import apply_to_values, linear_operator  # noqa: F401
from .timeseries import TimeSeries, percentile

ZERO_RESIDUAL_SSE = 1e-300


class LoocvMatrix:
    """T x T matrix of single-deletion smooths, its diagonal and the source series.

    ``diagonal`` is held from the start.  A matrix made by :meth:`deferred`
    is built the first time ``matrix`` is read and then kept; its builder is
    dropped, with whatever operator or deletion inputs the builder held.
    """

    def __init__(self, matrix, source: TimeSeries):
        m = np.asarray(matrix, dtype=float)
        t = len(source)
        if m.shape != (t, t):
            raise ValueError(f"matrix shape {m.shape} does not match series length {t}")
        self.source = source
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


def build_loocv_matrix(spec: SmootherSpec, series: TimeSeries) -> LoocvMatrix:
    """Delete, impute and re-smooth once per sample; columns stack the results.

    Column t is the smoother applied to the series with x_t replaced by its
    deletion imputation.  For a linear method (``linear_parts`` gives its
    smooth, operator diagonal and operator builder) that is computed as a
    rank-one update of one application (same map, fewer passes); the
    data-adaptive methods smooth the stack of all T deletion series in one
    call.  The diagonal is computed now; where it has a cheaper form than the
    full matrix (the linear methods, ADP), the matrix, and with it a linear
    method's dense operator, waits until it is read.
    """
    if not series.is_gap_free():
        raise InsufficientData("LOOCV input must be gap-free; impute first")
    y = series.values()
    parts = linear_parts(spec, y)  # raises SeriesTooShort first
    imp = deletion_imputations(y, series.day_index())
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

        return LoocvMatrix.deferred(series, base + operator_diagonal * step, matrix)
    diagonal = deletion_diagonal(spec, y, imp)
    if diagonal is not None:
        return LoocvMatrix.deferred(series, diagonal, lambda: _deletion_smooths(spec, y, imp))
    return LoocvMatrix(_deletion_smooths(spec, y, imp), series)


def _deletion_smooths(spec: SmootherSpec, y: np.ndarray, imp: np.ndarray) -> np.ndarray:
    """Column i: the smooth of ``y`` with ``y[i]`` replaced by ``imp[i]``."""
    deleted = np.tile(y, (len(y), 1))  # row i: the series with x_i deleted
    np.fill_diagonal(deleted, imp)
    # the copy keeps the matrix C-contiguous: var_index sums its rows in
    # memory order, and a transposed view would change the last digits
    return np.ascontiguousarray(apply_to_values(spec, deleted).T)


def mae(loocv: LoocvMatrix) -> float:
    resid = loocv.diagonal - loocv.source.values()
    return float(np.mean(np.abs(resid)))


def var_index(loocv: LoocvMatrix) -> float:
    return float(np.sum(np.var(loocv.matrix, axis=1, ddof=1)))


def aic(loocv: LoocvMatrix, k: int, standard_sign: bool = False) -> float:
    """T*ln(SSE/T) with the 2k penalty subtracted (added when standard_sign)."""
    n = loocv.size
    resid = loocv.diagonal - loocv.source.values()
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
    p_lo = (1.0 - level) / 2.0
    p_hi = (1.0 + level) / 2.0
    lower = [percentile(row, p_lo) for row in loocv.matrix]
    upper = [percentile(row, p_hi) for row in loocv.matrix]
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
    series: TimeSeries,
    standard_aic_sign: bool = False,
    objective: "str | None" = None,
) -> "PerformanceIndex | float":
    """LOOCV build plus all three indices, or only the one ``objective`` names.

    ``objective`` "aic" or "mae" returns that index alone, read off the
    diagonal and checked as PerformanceIndex checks it; the full matrix is
    then never built, and VAR is neither computed nor checked.
    """
    loocv = build_loocv_matrix(spec, series)
    if objective is None:
        return performance_index(spec, loocv, standard_aic_sign)
    values = {"mae": mae(loocv), "aic": aic(loocv, spec.k, standard_sign=standard_aic_sign)}
    _check_diagonal_indices(values["mae"], values["aic"])
    return values[objective]
