"""Discrete-Fourier low-pass smoother (FFT).

Parameter-less by construction: the cutoff is the smallest harmonic below
which at least ``energy_fraction`` (default 90%) of the non-DC spectral
energy is retained; everything above it is zeroed before the inverse
transform.
"""
from __future__ import annotations

import numpy as np

DEFAULT_ENERGY_FRACTION = 0.9


def fourier_lowpass(y: np.ndarray, energy_fraction: float = DEFAULT_ENERGY_FRACTION) -> np.ndarray:
    n = len(y)
    spectrum = np.fft.rfft(y)
    # one-sided bins represent two conjugate coefficients except DC (and
    # Nyquist for even n)
    weights = np.full(len(spectrum), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    # an energy past the float range is inf, which the cutoff search below takes
    with np.errstate(over="ignore"):
        energy = weights * np.abs(spectrum) ** 2
    non_dc = energy[1:]
    total = float(non_dc.sum())
    if total <= 0.0:
        return np.asarray(y, dtype=float).copy()
    cum = np.cumsum(non_dc)
    pos = int(np.searchsorted(cum, energy_fraction * total))
    cutoff = min(pos, len(non_dc) - 1) + 1  # harmonic index into `spectrum`
    kept = spectrum.copy()
    kept[cutoff + 1 :] = 0.0
    return np.fft.irfft(kept, n)
