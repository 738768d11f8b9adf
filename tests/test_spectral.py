"""Spectrum computation against a naive O(N^2) DFT oracle, plus the
main-spectrum selection rules and flatness tests."""

import numpy as np
import pytest

from phasescope import (
    AnalysisConfig,
    Waveform,
    dft_magnitude,
    is_flat,
    main_spectrum,
)
from phasescope.spectral import FLAT_SPECTRUM_RATIO, spectrum_csv


def wave(samples, stride=1, origin=0):
    samples = np.asarray(samples, dtype=float)
    return Waveform(
        samples=samples,
        sample_stride=stride,
        origin_instruction=origin,
    )


def naive_dft_magnitudes(samples):
    """Oracle: direct summation, one bin at a time."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    ks = np.arange(n // 2 + 1)
    out = np.empty(ks.size)
    for k in ks:
        angles = -2.0j * np.pi * k * np.arange(n) / n
        out[k] = abs(np.sum(samples * np.exp(angles))) / n
    return out


def test_constant_waveform_is_pure_dc():
    for n in (2, 7, 64):
        magnitudes = dft_magnitude(wave([2.5] * n))
        assert magnitudes[0] == pytest.approx(2.5, abs=1e-12)
        assert np.all(magnitudes[1:] < 1e-12)


def test_pure_cosine_lands_on_its_bin():
    n = 64
    samples = np.cos(2 * np.pi * 4 * np.arange(n) / n)
    magnitudes = dft_magnitude(wave(samples + 2.0))  # keep samples positive
    nondc = magnitudes[1:]
    k = int(np.argmax(nondc)) + 1
    assert k == 4
    # closed form: a unit cosine contributes amplitude/2 at its bin
    assert magnitudes[4] == pytest.approx(0.5, abs=1e-9)
    others = np.delete(nondc, 3)
    assert np.all(others < 1e-9)


def test_fast_path_matches_naive_dft():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(2, 257))
        samples = rng.uniform(0.2, 4.0, size=n)
        magnitudes = dft_magnitude(wave(samples))
        assert magnitudes.dtype == np.float64 and magnitudes.shape == (n // 2 + 1,)
        np.testing.assert_allclose(magnitudes, naive_dft_magnitudes(samples), atol=1e-9)


def test_dc_equals_mean():
    rng = np.random.default_rng(5)
    for _ in range(10):
        samples = rng.uniform(0.1, 5.0, size=int(rng.integers(2, 300)))
        magnitudes = dft_magnitude(wave(samples))
        assert magnitudes[0] == pytest.approx(float(samples.mean()), abs=1e-9)


def test_rotation_leaves_magnitudes_unchanged():
    rng = np.random.default_rng(17)
    samples = rng.uniform(0.5, 3.0, size=128)
    base = dft_magnitude(wave(samples))
    for shift in (1, 13, 64, 100):
        rotated = dft_magnitude(wave(np.roll(samples, shift)))
        np.testing.assert_allclose(rotated, base, atol=1e-9)
        assert main_spectrum(rotated) == main_spectrum(base)


def test_scaling_covariance():
    rng = np.random.default_rng(23)
    samples = rng.uniform(0.5, 3.0, size=96)
    base = dft_magnitude(wave(samples))
    scaled = dft_magnitude(wave(samples * 3.7))
    np.testing.assert_allclose(scaled, base * 3.7, atol=1e-9)
    assert main_spectrum(scaled) == main_spectrum(base)


@pytest.mark.parametrize("period", [4, 8, 16, 32])
def test_square_wave_fundamental_dominates(period):
    n = 256
    pattern = np.where(np.arange(n) % period < period // 2, 2.0, 1.0)
    assert main_spectrum(dft_magnitude(wave(pattern))) == n // period
    # the naive oracle agrees on the winner
    naive = naive_dft_magnitudes(pattern)
    assert int(np.argmax(naive[1:])) + 1 == n // period


def test_paper_style_phase_lengths():
    # 4 repetitions across 4500 instructions (analyze's length: 1125)
    n = 2250
    pattern = np.where((np.arange(n) * 2) % 1125 < 560, 1.0, 2.0)
    assert main_spectrum(dft_magnitude(wave(pattern, stride=2))) == 4
    # 40 repetitions across 400 instructions (analyze's length: 10)
    pattern = np.where(np.arange(400) % 10 < 5, 1.0, 2.0)
    assert main_spectrum(dft_magnitude(wave(pattern))) == 40


def test_tie_breaks_toward_smaller_occurrence():
    magnitudes = np.array([5.0, 0.1, 0.0, 0.9, 0.2, 0.3, 0.9])
    k = main_spectrum(magnitudes)
    assert type(k) is int and k == 3
    assert magnitudes[k] == 0.9


def test_an_all_zero_spectrum_gives_occurrence_1():
    # flatness is is_flat's question: main_spectrum is the bin rule alone
    assert main_spectrum(np.array([2.0, 0.0, 0.0])) == 1


def test_one_sample_has_no_spectrum():
    with pytest.raises(ValueError, match="^waveform must have at least 2 samples$"):
        dft_magnitude(wave([1.5]))


def test_a_dc_only_spectrum_has_no_main_bin_and_is_flat():
    dc_only = np.array([1.5])
    with pytest.raises(ValueError, match="^spectrum has no non-DC bins$"):
        main_spectrum(dc_only)
    # the CPI range (1.0) is outside the flat band, so the bins decide
    assert is_flat(wave([1.0, 2.0]), dc_only, AnalysisConfig())


def test_is_flat_constant_and_thresholds():
    config = AnalysisConfig()
    constant = wave([1.5] * 32)
    assert is_flat(constant, dft_magnitude(constant), config)

    # square wave amplitude 1.0 around 1.5: both tests fail -> not flat
    square = wave(np.where(np.arange(32) % 8 < 4, 2.0, 1.0))
    sq_spec = dft_magnitude(square)
    assert square.samples.max() - square.samples.min() == pytest.approx(1.0)
    assert sq_spec[1:].max() > FLAT_SPECTRUM_RATIO * sq_spec[0]
    assert not is_flat(square, sq_spec, config)

    # range 0.25 sits inside the default 0.3 band -> flat
    small = wave(np.where(np.arange(32) % 8 < 4, 1.25, 1.0))
    assert is_flat(small, dft_magnitude(small), config)


def test_a_spectrum_within_the_ratio_is_flat_though_its_cpi_range_is_not():
    # a square wave of range 0.5 around 20.25: bin 4 holds about 0.16, within
    # 0.02 of the DC value (0.405); one of range 2.0 around 21 puts about
    # 0.653 there, past 0.02 of the DC value (0.42)
    config = AnalysisConfig()
    square = wave(np.where(np.arange(32) % 8 < 4, 20.5, 20.0))
    magnitudes = dft_magnitude(square)
    assert square.samples.max() - square.samples.min() == 0.5 > config.flat_cpi_range
    assert 0.16 < magnitudes[1:].max() <= FLAT_SPECTRUM_RATIO * magnitudes[0]
    assert is_flat(square, magnitudes, config)
    steep = wave(np.where(np.arange(32) % 8 < 4, 22.0, 20.0))
    magnitudes = dft_magnitude(steep)
    assert magnitudes[1:].max() == pytest.approx(0.653, abs=1e-3)
    assert magnitudes[1:].max() > FLAT_SPECTRUM_RATIO * magnitudes[0] == pytest.approx(0.42)
    assert not is_flat(steep, magnitudes, config)


def test_spectrum_csv_reserves_row_zero_for_dc():
    lines = spectrum_csv(dft_magnitude(wave([1.0, 2.0, 1.0, 2.0]))).splitlines()
    assert lines[0] == "occurrence,magnitude"
    assert lines[1].startswith("0,")
    assert float(lines[1].split(",")[1]) == pytest.approx(1.5)


def test_spectrum_csv_matches_the_per_row_writer():
    magnitudes = dft_magnitude(wave(np.where(np.arange(256) % 32 < 12, 2.75, 0.5)))
    assert (magnitudes < 1e-4).any()  # round-off bins take the exponent spelling
    rows = ["occurrence,magnitude"]
    for k, mag in enumerate(magnitudes):
        rows.append(f"{k},{float(mag)!r}")
    assert spectrum_csv(magnitudes) == "\n".join(rows) + "\n"
