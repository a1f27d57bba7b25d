"""Population normalization of virus concentrations via flow and NH4 biomarker.

Two equivalent routes express the per-capita viral load: divide the daily
load ``c_virus * Q`` by a population estimate obtained from the biomarker
balance ``P = c_bm * Q / f_bm``, or cancel the flow directly and compute
``c_virus * f_bm / c_bm``.  Both are provided; the flow-free form is what the
pipeline uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InputError,
    MisalignedSeries,
    NonPositiveBiomarkerLoad,
    NonPositivePopulation,
    ZeroBiomarkerConcentration,
)
from .timeseries import Sample, TimeSeries


@dataclass(frozen=True)
class BiomarkerLoad:
    """Specific biomarker excretion in g per person per day, with spread."""

    f_bm: float
    p_low: float  # 2.5-percentile
    p_med: float  # 50-percentile
    p_high: float  # 97.5-percentile

    def __post_init__(self):
        if not (0 < self.p_low <= self.p_med <= self.p_high):
            raise ValueError(
                f"percentiles must satisfy 0 < p_low <= p_med <= p_high, "
                f"got ({self.p_low}, {self.p_med}, {self.p_high})"
            )


# NH4-N loads in g per capita per day, measured during the April to mid-May
# 2020 low-fluctuation period; shipped as reference constants for the four
# study catchments.
REFERENCE_NH4_LOADS: dict[str, BiomarkerLoad] = {
    "A": BiomarkerLoad(f_bm=10.71, p_low=9.77, p_med=10.71, p_high=12.17),
    "B": BiomarkerLoad(f_bm=6.49, p_low=5.84, p_med=6.49, p_high=7.13),
    "C": BiomarkerLoad(f_bm=8.99, p_low=8.02, p_med=8.99, p_high=9.73),
    "D": BiomarkerLoad(f_bm=6.80, p_low=5.94, p_med=6.80, p_high=9.32),
}


def reference_nh4_load(site: str) -> float:
    """The study's NH4 load of ``site``, for runs that configure none."""
    ref = REFERENCE_NH4_LOADS.get(site)
    if ref is None:
        raise InputError(
            f"no NH4 load for site {site!r}: pass --f-nh4 or --load-table "
            f"(reference data covers sites {sorted(REFERENCE_NH4_LOADS)})"
        )
    return ref.f_bm


def flow_population_load(c_virus: float, q_flow: float, population: float) -> float:
    """Viral load per person per day from concentration, flow and population."""
    if population <= 0:
        raise NonPositivePopulation(f"population must be positive, got {population}")
    if c_virus < 0 or q_flow < 0:
        raise ValueError("concentration and flow must be nonnegative")
    return c_virus * q_flow / population


def estimate_population(c_bm: float, q_flow: float, f_bm: float) -> float:
    """Contributing population from the biomarker mass balance."""
    if f_bm <= 0:
        raise NonPositiveBiomarkerLoad(f"specific biomarker load must be positive, got {f_bm}")
    return c_bm * q_flow / f_bm


def normalize_series(
    c_virus_series: TimeSeries, c_nh4_series: TimeSeries, f_nh4: float
) -> TimeSeries:
    """Pointwise per-capita load: ``c_virus * f_nh4 / c_nh4``.

    The two series must share identical timestamps.  A timestamp where either
    input is missing yields a missing output; a zero biomarker concentration
    where the virus value is present, or one so small that the load
    overflows, is an error.
    """
    if f_nh4 <= 0:
        raise NonPositiveBiomarkerLoad(f"f_nh4 must be positive, got {f_nh4}")
    if c_virus_series.timestamps != c_nh4_series.timestamps:
        raise MisalignedSeries("virus and biomarker series have different timestamps")
    out: list[Sample] = []
    for sv, sb in zip(c_virus_series, c_nh4_series):
        if sv.value is None or sb.value is None:
            out.append(Sample(sv.timestamp, None))
            continue
        if sb.value <= 0:
            raise ZeroBiomarkerConcentration(
                f"NH4 concentration is {sb.value} at {sv.timestamp} with virus value present"
            )
        load = sv.value * f_nh4 / sb.value
        if not math.isfinite(load):
            raise ZeroBiomarkerConcentration(
                f"NH4 concentration is {sb.value} at {sv.timestamp}: the normalized load overflows"
            )
        out.append(Sample(sv.timestamp, load))
    return TimeSeries(tuple(out))
