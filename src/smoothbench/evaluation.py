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
when the VAR index or the confidence band first reads it.  Every LOOCV comes
from ``smoothers.deletion_loocv``: a linear method's rank-one update, SUP's
and ADP's own forms (SUP smooths the deletion stack from its bass-free
stage; ADP reads one table of window fits, keyed by (window, degree, shift),
not T deletion smooths), and the deletion stack smoothed in one call for
every other spec.

A :class:`LoocvEvaluator` holds one method's LOOCV of one series: the form
that ``deletion_loocv`` builds from the values and their deletion
imputations, with what it computes once per series (SUP's bass-free stage,
ADP's table of window fits).  It is built when first read and serves every
parameter vector scored through the evaluator, so a GA run and the final
LOOCV build compute it once.  It stands in for its series wherever this
module takes one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import EvaluationFailure, InsufficientData, SeriesTooShort
from .smoothers import MethodId, SmootherSpec, deletion_loocv
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
    if len(y) < 2:  # no value remains to impute from
        raise SeriesTooShort(f"LOOCV needs at least 2 points, got {len(y)}")
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
    without the evaluator.  The method's ``deletion_loocv`` form, over the
    values and their deletion imputations kept read-only, is built when
    first read and shared by every later call; it lives as long as the
    evaluator.  A series with a gap raises InsufficientData on each call, as
    the LOOCV of such a series does.
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
    def _scorer(self) -> Callable[[SmootherSpec], tuple]:
        y = read_only(self.series.values())
        imp = read_only(deletion_imputations(y, self.series.day_index()))
        return deletion_loocv(self.method, y, imp)

    def loocv(self, spec: SmootherSpec) -> LoocvMatrix:
        """Delete, impute and re-smooth once per sample; columns stack the results.

        Column t is the smoother applied to the series with x_t replaced by
        its deletion imputation.  The diagonal comes at once and the matrix
        waits until it is read.
        """
        if spec.method is not self.method:
            raise ValueError(f"an evaluator of {self.method.value} cannot score {spec}")
        if not self._gap_free:
            raise InsufficientData("LOOCV input must be gap-free; impute first")
        return LoocvMatrix.deferred(self.series, *self._scorer(spec))


def build_loocv_matrix(
    spec: SmootherSpec, series: "TimeSeries | LoocvEvaluator"
) -> LoocvMatrix:
    """``spec``'s LOOCV matrix on ``series``, or on the series of an evaluator
    of ``spec.method`` (see ``LoocvEvaluator.loocv``)."""
    return LoocvEvaluator.of(spec.method, series).loocv(spec)


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
