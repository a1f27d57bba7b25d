"""Linear relation between per-capita viral load and 7-day incidence."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDesign, EvaluationFailure, InsufficientData
from .timeseries import TimeSeries


@dataclass(frozen=True)
class LoadIncidencePair:
    load: float  # RNA copies per capita per day
    incidence: float  # weekly cases per 100,000 persons

    def __post_init__(self):
        if self.load < 0 or self.incidence < 0:
            raise ValueError("load and incidence must be nonnegative")


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a linear fit needs at least 2 points")
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared out of range: {self.r_squared}")


def fit_linear(pairs: Sequence[LoadIncidencePair]) -> LinearFit:
    """Ordinary least squares of incidence on load, closed form.

    A fit whose sums or slope overflow is an ``EvaluationFailure``: the
    values are beyond its arithmetic.
    """
    if len(pairs) < 2:
        raise InsufficientData(f"need at least 2 pairs, got {len(pairs)}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _least_squares(pairs)
    except FloatingPointError as exc:
        raise EvaluationFailure(f"the linear fit overflows on these values: {exc}") from exc


def _least_squares(pairs: Sequence[LoadIncidencePair]) -> LinearFit:
    x = np.array([p.load for p in pairs], dtype=float)
    y = np.array([p.incidence for p in pairs], dtype=float)
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateDesign("all load values identical; slope is undefined")
    sxy = ((x - x_mean) * (y - y_mean)).sum()  # a numpy scalar: its quotient raises too
    slope = float(sxy / sxx)
    intercept = y_mean - slope * x_mean
    resid = y - (slope * x + intercept)
    sse = float(resid @ resid)
    sst = float(((y - y_mean) ** 2).sum())
    if sst == 0.0:
        r2 = 1.0 if sse < 1e-300 else 0.0
    else:
        r2 = 1.0 - sse / sst
    return LinearFit(slope=slope, intercept=intercept, r_squared=min(max(r2, 0.0), 1.0), n=len(pairs))


def join_load_incidence(loads: TimeSeries, incidence: TimeSeries) -> list[LoadIncidencePair]:
    """Exact-date join; dates where either value is missing are dropped.

    Smoothers may undershoot zero on near-zero signals, so slightly negative
    load values are clamped to zero rather than rejected.
    """
    by_date = {s.timestamp: s.value for s in incidence}
    out = []
    for s in loads:
        inc = by_date.get(s.timestamp)
        if s.value is None or inc is None:
            continue
        out.append(LoadIncidencePair(load=max(s.value, 0.0), incidence=inc))
    return out
