"""Frequency-domain view of a CPI waveform and main-spectrum selection.

A spectrum is the float64 magnitude array of the waveform's DFT, normalized
by the sample count: index k is occurrence k for k = 0..N//2, so index 0
(DC) equals the mean CPI and the remaining bins are amplitude-like in CPI
units. Bin k counts how many times a pattern occurs across the analyzed
range; `analyze` derives the instance length from the dominant non-DC
occurrence, as range_length / occurrence instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import Waveform
from .trace import float_reprs


class FlatSpectrumError(ValueError):
    """No meaningful dominant bin exists (spectrum is identically flat)."""


@dataclass(frozen=True)
class MainSpectrum:
    """The dominant non-DC bin: its occurrence k (index into the magnitude
    array, at least 1) and its magnitude."""

    occurrence: int
    magnitude: float


def dft_magnitude(waveform: Waveform) -> np.ndarray:
    """Magnitude spectrum of the waveform samples, normalized by N.

    magnitudes[k] = |sum_n s_n exp(-2πi k n / N)| / N for k = 0..N//2.
    Any N >= 2 is accepted; power-of-two sizes are merely faster.
    """
    samples = waveform.samples
    n = samples.size
    if n < 2:
        raise ValueError("waveform must have at least 2 samples")
    mags = np.abs(np.fft.rfft(samples))
    mags /= n
    return mags


def main_spectrum(magnitudes: np.ndarray) -> MainSpectrum:
    """Dominant non-DC bin; ties break toward smaller occurrence.

    Smaller occurrence = longer pattern, preferring the coarsest repeating
    structure. Raises FlatSpectrumError when every non-DC magnitude is zero;
    callers should gate on is_flat() first for threshold-based flatness.
    """
    nondc = magnitudes[1:]
    if nondc.size == 0:
        raise FlatSpectrumError("spectrum has no non-DC bins")
    k = int(nondc.argmax()) + 1  # argmax returns the first (smallest) index
    magnitude = float(magnitudes[k])
    if magnitude <= 0.0:
        raise FlatSpectrumError("all non-DC magnitudes are zero")
    return MainSpectrum(occurrence=k, magnitude=magnitude)


def is_flat(waveform: Waveform, magnitudes: np.ndarray, config) -> bool:
    """True when the waveform is one phase: CPI range within
    config.flat_cpi_range, or every non-DC bin within
    config.flat_spectrum_ratio of the DC value."""
    samples = waveform.samples
    cpi_range = float(np.maximum.reduce(samples) - np.minimum.reduce(samples))
    if cpi_range <= config.flat_cpi_range:
        return True
    nondc = magnitudes[1:]
    if nondc.size == 0:
        return True
    return float(np.maximum.reduce(nondc)) <= config.flat_spectrum_ratio * float(magnitudes[0])


def spectrum_csv(magnitudes: np.ndarray) -> str:
    """CSV with header occurrence,magnitude; row 0 carries the DC value."""
    rows = enumerate(float_reprs(magnitudes))
    return "occurrence,magnitude\n" + "".join(f"{k},{text}\n" for k, text in rows)
