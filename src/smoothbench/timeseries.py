"""Core time-series containers and order statistics.

A series is an ordered sequence of day-resolution samples.  Missing
observations are carried explicitly as ``None`` so that no NaN ever reaches
the numerical code; gap-free arrays are produced via :func:`impute_linear`
before any smoother runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptyInput,
    InsufficientData,
)

MISSING = None


@dataclass(frozen=True)
class Sample:
    """One observation: a calendar day and a value (or ``None`` if missing)."""

    timestamp: date
    value: float | None

    def __post_init__(self):
        if self.value is not None:
            v = float(self.value)
            if not math.isfinite(v):
                raise ValueError(f"non-finite sample value at {self.timestamp}: {self.value!r}")
            object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class TimeSeries:
    """Immutable ordered series with strictly increasing timestamps."""

    samples: tuple[Sample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if len(self.samples) == 0:
            raise EmptyInput("a TimeSeries needs at least one sample")
        for a, b in zip(self.samples, self.samples[1:]):
            if a.timestamp >= b.timestamp:
                raise DuplicateTimestamp(
                    f"timestamps not strictly increasing: {a.timestamp} then {b.timestamp}"
                )
        if all(s.value is None for s in self.samples):
            raise EmptyInput("a TimeSeries needs at least one non-missing value")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[date, float | None]]) -> "TimeSeries":
        return cls(tuple(Sample(t, v) for t, v in pairs))

    @classmethod
    def from_values(
        cls, values: Sequence[float | None], start: date = date(2020, 10, 1), step_days: int = 1
    ) -> "TimeSeries":
        """Build a series on an evenly spaced daily grid (test/synthetic helper)."""
        base = start.toordinal()
        return cls(
            tuple(
                Sample(date.fromordinal(base + i * step_days), v) for i, v in enumerate(values)
            )
        )

    @property
    def timestamps(self) -> tuple[date, ...]:
        return tuple(s.timestamp for s in self.samples)

    def values(self) -> np.ndarray:
        """Values as a float array with NaN standing in for missing entries."""
        return np.array(
            [np.nan if s.value is None else s.value for s in self.samples], dtype=float
        )

    def day_index(self) -> np.ndarray:
        """Timestamps as day offsets from the first sample."""
        base = self.samples[0].timestamp.toordinal()
        return np.array([s.timestamp.toordinal() - base for s in self.samples], dtype=float)

    def is_gap_free(self) -> bool:
        return all(s.value is not None for s in self.samples)

    def with_values(self, values: Sequence[float]) -> "TimeSeries":
        """New series on the same timestamps (all values must be present)."""
        if len(values) != len(self.samples):
            raise ValueError(f"expected {len(self.samples)} values, got {len(values)}")
        return TimeSeries(
            tuple(Sample(s.timestamp, float(v)) for s, v in zip(self.samples, values))
        )


@dataclass(frozen=True)
class SurveillanceRecord:
    """One composite-sample row from a treatment-plant inlet."""

    site: str
    timestamp: date
    c_virus: float | None = None  # RNA copies per liter
    q_flow: float | None = None  # liters per day
    c_nh4: float | None = None  # grams per liter
    active_cases: float | None = None
    incidence_7d: float | None = None  # weekly cases per 100k persons

    def __post_init__(self):
        for name in _RECORD_FIELDS:
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")


# the numeric fields, in declaration order
_RECORD_FIELDS = tuple(
    f.name for f in fields(SurveillanceRecord) if f.name not in ("site", "timestamp")
)


def build_series(records: Sequence[SurveillanceRecord], field: str) -> TimeSeries:
    """Extract one field of a record set as a date-sorted TimeSeries.

    All records must belong to the same site; duplicate dates are rejected.
    Rows where the field is absent become missing slots.
    """
    if not records:
        raise EmptyInput("no records supplied")
    if field not in _RECORD_FIELDS:
        raise ValueError(f"unknown field {field!r}; expected one of {_RECORD_FIELDS}")
    sites = {r.site for r in records}
    if len(sites) > 1:
        raise ValueError(f"records span multiple sites: {sorted(sites)}")
    ordered = sorted(records, key=lambda r: r.timestamp)
    for a, b in zip(ordered, ordered[1:]):
        if a.timestamp == b.timestamp:
            raise DuplicateTimestamp(f"two records share the date {a.timestamp}")
    return TimeSeries(tuple(Sample(r.timestamp, getattr(r, field)) for r in ordered))


def impute_linear(series: TimeSeries) -> TimeSeries:
    """Fill every missing slot by linear interpolation on the time axis.

    Interior gaps are interpolated between the nearest present neighbours
    (weighted by calendar distance); leading/trailing gaps copy the nearest
    present value.  Idempotent: a gap-free series is returned unchanged.
    """
    vals = series.values()
    present = ~np.isnan(vals)
    n_present = int(present.sum())
    if n_present == len(vals):
        return series
    if n_present < 2:
        raise InsufficientData(
            f"need at least 2 non-missing values to impute, have {n_present}"
        )
    t = series.day_index()
    filled = np.interp(t, t[present], vals[present])
    return series.with_values(filled)


def percentile(values: "Sequence[float] | np.ndarray", p: float) -> "float | np.ndarray":
    """Linear-interpolated order statistic with the inclusive convention.

    The rank is ``p * (n - 1)``; fractional ranks interpolate between the
    neighbouring order statistics, so ``p=0`` is the minimum and ``p=1`` the
    maximum.  A sequence gives a float; a 2-D array gives an array of its
    rows' values, read from one sort of every row, each the same bits as the
    row alone gives.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput("percentile of an empty sequence")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    ordered = np.sort(arr, axis=-1)
    rank = p * (arr.shape[-1] - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    low = value = ordered[..., lo]
    if lo != hi:
        high = ordered[..., hi]
        tied = low == high
        # the gap only where the order statistics differ, as a row alone computes it
        gap = np.subtract(high, low, out=np.zeros_like(low), where=~tied)
        value = low + (rank - lo) * gap
        value = np.where(low > value, low, value)
        value = np.where(high < value, high, value)
        value = np.where(tied, low, value)
    return float(value) if arr.ndim == 1 else value
