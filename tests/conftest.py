# smoothbench before numpy, so that numpy starts one OpenBLAS thread and this
# process stays single-threaded: the worker pool forks from no other.
import smoothbench  # noqa: F401, I001

import numpy as np
import pytest

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
