"""Frequency-domain view of a CPI waveform and main-spectrum selection.

Magnitudes are normalized by the sample count, so the zero-occurrence (DC)
bin equals the mean CPI and the remaining bins are amplitude-like in CPI
units. Bin k counts how many times a pattern occurs across the analyzed
range, so the dominant non-DC bin at occurrence X implies a pattern length
of range_length / X instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import Waveform
from .trace import float_reprs


class FlatSpectrumError(ValueError):
    """No meaningful dominant bin exists (spectrum is identically flat)."""


@dataclass(frozen=True)
class Spectrum:
    """Single-sided magnitude spectrum.

    Layout: magnitudes[k] is occurrence k for k = 0..N//2 (N samples), with
    the DC term kept at index 0 (dc_value mirrors it); main-spectrum search
    never considers index 0.
    """

    magnitudes: np.ndarray
    source_length_instructions: int

    @property
    def dc_value(self) -> float:
        return float(self.magnitudes[0])


@dataclass(frozen=True)
class MainSpectrum:
    occurrence: int
    magnitude: float
    phase_length_instructions: int


def dft_magnitude(waveform: Waveform) -> Spectrum:
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
    return Spectrum(
        magnitudes=mags,
        source_length_instructions=n * waveform.sample_stride,
    )


def main_spectrum(spectrum: Spectrum) -> MainSpectrum:
    """Dominant non-DC bin; ties break toward smaller occurrence.

    Smaller occurrence = longer pattern, preferring the coarsest repeating
    structure. Raises FlatSpectrumError when every non-DC magnitude is zero;
    callers should gate on is_flat() first for threshold-based flatness.
    """
    nondc = spectrum.magnitudes[1:]
    if nondc.size == 0:
        raise FlatSpectrumError("spectrum has no non-DC bins")
    k = int(nondc.argmax()) + 1  # argmax returns the first (smallest) index
    magnitude = float(spectrum.magnitudes[k])
    if magnitude <= 0.0:
        raise FlatSpectrumError("all non-DC magnitudes are zero")
    length = max(1, round(spectrum.source_length_instructions / k))
    return MainSpectrum(occurrence=k, magnitude=magnitude, phase_length_instructions=length)


def is_flat(waveform: Waveform, spectrum: Spectrum, config) -> bool:
    """True when the waveform is one phase: CPI range within
    config.flat_cpi_range, or every non-DC bin within
    config.flat_spectrum_ratio of the DC value."""
    samples = waveform.samples
    cpi_range = float(np.maximum.reduce(samples) - np.minimum.reduce(samples))
    if cpi_range <= config.flat_cpi_range:
        return True
    nondc = spectrum.magnitudes[1:]
    if nondc.size == 0:
        return True
    return float(np.maximum.reduce(nondc)) <= config.flat_spectrum_ratio * spectrum.dc_value


def spectrum_csv(spectrum: Spectrum) -> str:
    """CSV with header occurrence,magnitude; row 0 carries the DC value."""
    rows = enumerate(float_reprs(spectrum.magnitudes))
    return "occurrence,magnitude\n" + "".join(f"{k},{text}\n" for k, text in rows)
