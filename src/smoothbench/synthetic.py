"""Bundled synthetic surveillance datasets.

Real treatment-plant measurements are not redistributable, so the benchmark
ships a generator for epidemic-shaped surveillance records: a logistic pulse
in virus concentration under multiplicative lognormal noise, a roughly
constant flow, an NH4 biomarker around a fixed excretion balance, and an
incidence signal linearly tied to the underlying true load.

``catchment_suite`` produces four sites sharing one pulse and one noise draw,
with the noise amplitude growing as the served population shrinks, plus
per-site incidence slopes/intercepts that also grow for small catchments.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .timeseries import SurveillanceRecord

DEFAULT_START = date(2020, 6, 1)
DEFAULT_F_NH4 = 10.71  # g per capita per day

# (population, relative noise, incidence slope per 1e6 copies/cap/d, intercept)
_CATCHMENTS = {
    "A": (1_900_000, 0.10, 1.2, 20.0),
    "B": (320_700, 0.18, 1.8, 45.0),
    "C": (41_700, 0.30, 2.6, 90.0),
    "D": (23_600, 0.45, 3.4, 140.0),
}


@dataclass(frozen=True)
class SyntheticTruth:
    """Noise-free ground truth underlying a generated record set."""

    c_virus: np.ndarray  # copies per liter
    normalized_load: np.ndarray  # copies per capita per day


def pulse_shape(n: int) -> np.ndarray:
    """Smooth epidemic pulse in [0, 1]: logistic rise then logistic decay."""
    t = np.arange(n, dtype=float)
    rise = 1.0 / (1.0 + np.exp(-(t - 0.42 * n) / (0.07 * n)))
    fall = 1.0 / (1.0 + np.exp((t - 0.78 * n) / (0.06 * n)))
    return rise * fall


def synthetic_records(
    site: str = "synthetic",
    n: int = 60,
    seed: int = 42,
    noise_sigma: float = 0.18,
    incidence_slope: float = 1.5,
    incidence_intercept: float = 30.0,
    step_days: int = 3,
    start: date = DEFAULT_START,
    with_gaps: bool = False,
    noise_draw: np.ndarray | None = None,
) -> tuple[list[SurveillanceRecord], SyntheticTruth]:
    """Generate one site's records plus the noise-free truth."""
    rng = np.random.default_rng(seed)
    shape = pulse_shape(n)
    c_virus_true = 5e3 + 2.2e5 * shape  # copies per liter
    eps = rng.standard_normal(n) if noise_draw is None else np.asarray(noise_draw)
    c_virus = c_virus_true * np.exp(noise_sigma * eps - 0.5 * noise_sigma**2)

    q_flow = 5.395e8 * np.exp(0.05 * rng.standard_normal(n))  # liters per day
    c_nh4 = np.clip(0.03 + 0.0025 * rng.standard_normal(n), 0.012, None)  # g/L

    norm_true = c_virus_true * DEFAULT_F_NH4 / 0.03
    incidence = np.clip(
        incidence_intercept
        + incidence_slope * norm_true / 1e6
        + 6.0 * rng.standard_normal(n),
        0.0,
        None,
    )

    missing_virus = {17} if with_gaps else set()
    missing_nh4 = {8, 41} if with_gaps else set()

    records = []
    for i in range(n):
        records.append(
            SurveillanceRecord(
                site=site,
                timestamp=start + timedelta(days=i * step_days),
                c_virus=None if i in missing_virus else float(c_virus[i]),
                q_flow=float(q_flow[i]),
                c_nh4=None if i in missing_nh4 else float(c_nh4[i]),
                active_cases=float(round(incidence[i] * 19.0)),
                incidence_7d=float(incidence[i]),
            )
        )
    truth = SyntheticTruth(c_virus=c_virus_true, normalized_load=norm_true)
    return records, truth


def bundled_records(seed: int = 42, n: int = 60) -> list[SurveillanceRecord]:
    """The default benchmark dataset: one site, noisy logistic pulse, T=60."""
    records, _ = synthetic_records(site="synthetic", n=n, seed=seed, with_gaps=True)
    return records


def catchment_suite(
    seed: int = 42, n: int = 60
) -> dict[str, tuple[list[SurveillanceRecord], SyntheticTruth]]:
    """Four catchments sharing one pulse; noise grows as population shrinks."""
    rng = np.random.default_rng(seed)
    shared_eps = rng.standard_normal(n)
    out = {}
    for offset, (site, (_pop, sigma, slope, intercept)) in enumerate(_CATCHMENTS.items()):
        out[site] = synthetic_records(
            site=site,
            n=n,
            seed=seed + 1000 + offset,
            noise_sigma=sigma,
            incidence_slope=slope,
            incidence_intercept=intercept,
            noise_draw=shared_eps,
        )
    return out
