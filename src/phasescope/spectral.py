"""Frequency-domain view of a CPI waveform and main-spectrum selection.

A spectrum is the float64 magnitude array of the waveform's DFT, normalized
by the sample count: index k is occurrence k for k = 0..N//2, so index 0
(DC) equals the mean CPI and the remaining bins are amplitude-like in CPI
units. Bin k counts how many times a pattern occurs across the analyzed
range. is_flat alone decides that a waveform is one phase, by its CPI
range or by its spectrum; main_spectrum, asked only of a waveform that is
not flat, returns the dominant non-DC bin's index k. `analyze` derives the
instance length from it, as range_length / k instructions, and reads the
bin's magnitude from the array as magnitudes[k].
"""

from __future__ import annotations

import numpy as np

from .attribution import Waveform
from .trace import float_reprs


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
    """The dominant non-DC bin's index k, its occurrence (at least 1): the
    argmax of magnitudes[1:], ties broken toward smaller occurrence (a
    longer pattern, the coarsest repeating structure), so an all-zero
    spectrum gives 1. Its magnitude is magnitudes[k]. Whether the spectrum
    is flat is is_flat's question. ValueError on fewer than 2 bins."""
    if magnitudes.size < 2:
        raise ValueError("spectrum has no non-DC bins")
    return int(magnitudes[1:].argmax()) + 1  # argmax returns the first (smallest) index


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
