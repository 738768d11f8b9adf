"""Frequency-domain view of a CPI waveform and main-spectrum selection.

A spectrum is the float64 magnitude array of the waveform's DFT, normalized
by the sample count: index k is occurrence k for k = 0..N//2, so index 0
(DC) equals the mean CPI and the remaining bins are amplitude-like in CPI
units. Bin k counts how many times a pattern occurs across the analyzed
range. main_spectrum returns the dominant non-DC bin's index k; `analyze`
derives the instance length from it, as range_length / k instructions, and
reads the bin's magnitude from the array as magnitudes[k]. is_flat decides
that a waveform is one phase, by its CPI range or by its spectrum, before
main_spectrum is asked.
"""

from __future__ import annotations

import numpy as np

from .attribution import Waveform
from .trace import float_reprs


class FlatSpectrumError(ValueError):
    """No meaningful dominant bin exists (spectrum is identically flat)."""


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


def main_spectrum(magnitudes: np.ndarray) -> int:
    """The dominant non-DC bin's index k, its occurrence (at least 1); ties
    break toward smaller occurrence. Its magnitude is magnitudes[k].

    Smaller occurrence = longer pattern, preferring the coarsest repeating
    structure. Raises FlatSpectrumError when every non-DC magnitude is zero;
    callers should gate on is_flat() first for threshold-based flatness.
    """
    nondc = magnitudes[1:]
    if nondc.size == 0:
        raise FlatSpectrumError("spectrum has no non-DC bins")
    k = int(nondc.argmax()) + 1  # argmax returns the first (smallest) index
    if magnitudes[k] <= 0.0:
        raise FlatSpectrumError("all non-DC magnitudes are zero")
    return k


#: is_flat's spectrum test: every non-DC bin within this fraction of the DC value
FLAT_SPECTRUM_RATIO = 0.02


def is_flat(waveform: Waveform, magnitudes: np.ndarray, config) -> bool:
    """True when the waveform is one phase: CPI range within
    config.flat_cpi_range, or every non-DC bin within FLAT_SPECTRUM_RATIO
    of the DC value."""
    samples = waveform.samples
    if float(np.maximum.reduce(samples) - np.minimum.reduce(samples)) <= config.flat_cpi_range:
        return True
    nondc = magnitudes[1:]
    if nondc.size == 0:
        return True
    return float(np.maximum.reduce(nondc)) <= FLAT_SPECTRUM_RATIO * float(magnitudes[0])


def spectrum_csv(magnitudes: np.ndarray) -> str:
    """CSV with header occurrence,magnitude; row 0 carries the DC value."""
    rows = enumerate(float_reprs(magnitudes))
    return "occurrence,magnitude\n" + "".join(f"{k},{text}\n" for k, text in rows)
