# smoothbench before numpy, so that numpy starts one OpenBLAS thread and this
# process stays single-threaded: the worker pool forks from no other.
import smoothbench  # noqa: F401, I001

import math

import numpy as np
import pytest

from smoothbench.smoothers.windows import knn_starts, local_design
from smoothbench.timeseries import TimeSeries


@pytest.fixture
def rng():
    return np.random.default_rng(20)


@pytest.fixture
def noisy_sine():
    gen = np.random.default_rng(42)
    values = np.sin(np.arange(40) / 5.0) + 0.1 * gen.normal(size=40) + 2.0
    return TimeSeries.from_values(values)


def random_series(gen: np.random.Generator, n: int, scale: float = 1.0) -> TimeSeries:
    trend = np.cumsum(gen.normal(scale=0.3, size=n))
    noise = gen.normal(scale=0.5, size=n)
    return TimeSeries.from_values(scale * (trend + noise + 5.0))


def full_windows(starts: np.ndarray, k: int, centers: np.ndarray):
    """Columns and offsets of one k-point window per center: a shape for every window."""
    cols = starts[:, None] + np.arange(k)[None, :]
    return cols, cols - centers[:, None]


def reference_pol_design(n: int, span: float):
    """POL's window columns and its design over all n windows, one shape each
    (gathered by ``arange(n)``), as built before its per-slot tables."""
    k = max(4, min(n, math.ceil(span * n)))
    cols, offsets = full_windows(knn_starts(n, k), k, np.arange(n))
    dist = np.abs(offsets).astype(float)
    dmax = dist.max(axis=1, keepdims=True)
    u = dist / dmax
    weights = np.clip(1.0 - u**3, 0.0, None) ** 3
    return cols, local_design(offsets, 2, weights=weights)


def reference_gaussian_weights(n: int, bandwidth: float) -> np.ndarray:
    """KER's n x n weights, as built before its table of lags: exp of every pair."""
    idx = np.arange(n, dtype=float)
    u = (idx[:, None] - idx[None, :]) / bandwidth
    return np.exp(-0.5 * u * u)
