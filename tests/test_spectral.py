import math

import numpy as np
import pytest

from oracles import dft_two_sided, one_sided_magnitudes
from oracles import spectral_centroid as centroid_oracle
from spectrobe import (
    DegenerateKernelError,
    Direction,
    Kernel,
    Spectrum,
    band_energies,
    compute_spectrum,
    dominant_frequency,
    lhfr,
    spectral_centroid,
    summarize,
)


def spectrum_of(values):
    return compute_spectrum(Kernel(np.asarray(values, dtype=np.float64)))


class TestComputeSpectrum:
    def test_impulse_is_flat(self):
        spec = spectrum_of([1.0] + [0.0] * 7)
        assert spec.source_length == 8
        assert spec.magnitudes.shape == (5,)
        np.testing.assert_array_equal(spec.magnitudes, np.ones(5))

    def test_constant_is_dc_only(self):
        spec = spectrum_of(np.ones(8))
        assert spec.magnitudes[0] == pytest.approx(8.0, rel=1e-12)
        assert np.all(np.abs(spec.magnitudes[1:]) <= 1e-12)

    def test_frequency_grid(self):
        even = spectrum_of(np.arange(10, dtype=float))
        np.testing.assert_array_equal(even.frequencies, np.arange(6) / 10)
        assert even.frequencies[-1] == 0.5
        odd = spectrum_of(np.arange(9, dtype=float))
        assert odd.magnitudes.shape == (5,)
        assert odd.frequencies[-1] == pytest.approx(4 / 9)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4021)
        for _ in range(20):
            n = int(rng.integers(8, 257))
            values = rng.standard_normal(n)
            fast = compute_spectrum(Kernel(values)).magnitudes
            _, slow = one_sided_magnitudes(values)
            scale = np.abs(slow).max()
            assert np.abs(fast - slow).max() <= 1e-9 * scale

    def test_scaling_is_linear(self):
        rng = np.random.default_rng(99)
        values = rng.standard_normal(64)
        base = compute_spectrum(Kernel(values))
        scaled = compute_spectrum(Kernel(3.7 * values))
        np.testing.assert_allclose(scaled.magnitudes, 3.7 * base.magnitudes, rtol=1e-12)
        assert summarize(base).centroid == pytest.approx(
            summarize(scaled).centroid, abs=1e-13
        )

    def test_parseval_energy_balance(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(128)
        two_sided = dft_two_sided(values)
        freq_energy = float(np.sum(np.abs(two_sided) ** 2))
        time_energy = 128 * float(np.sum(values**2))
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="index 1"):
            Kernel(np.array([1.0, np.nan, 2.0]))
        with pytest.raises(ValueError, match="index 0"):
            Kernel(np.array([np.inf, 0.0]))

    def test_rejects_short_and_multidim(self):
        with pytest.raises(ValueError):
            Kernel(np.array([1.0]))
        with pytest.raises(ValueError):
            Kernel(np.ones((4, 4)))

    def test_spectrum_validates_shape(self):
        with pytest.raises(ValueError):
            Spectrum(np.arange(4) / 8, np.ones(5), source_length=8)
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 0.3, 0.2]), np.ones(3), source_length=4)


class TestSpectralCentroid:
    def test_point_mass(self):
        spec = Spectrum(np.arange(5) / 8, np.array([0, 0, 1, 0, 0.0]), 8)
        assert spectral_centroid(spec) == 0.25

    def test_uniform_is_midpoint(self):
        spec = spectrum_of([1.0] + [0.0] * 7)
        assert spectral_centroid(spec) == pytest.approx(0.25, abs=1e-15)

    def test_weighted_example(self):
        # mass 1 at 0.25 and 3 at 0.5 lands on (0.25 + 1.5) / 4
        spec = Spectrum(np.arange(5) / 8, np.array([0, 0, 1, 0, 3.0]), 8)
        assert spectral_centroid(spec) == pytest.approx(0.4375)

    def test_dc_mass_is_counted(self):
        spec = Spectrum(np.arange(5) / 8, np.array([1, 0, 0, 0, 3.0]), 8)
        assert spectral_centroid(spec) == pytest.approx(0.375)

    def test_matches_longhand_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            values = rng.standard_normal(96)
            spec = compute_spectrum(Kernel(values))
            expected = centroid_oracle(spec.frequencies, spec.magnitudes)
            assert spectral_centroid(spec) == pytest.approx(expected, abs=1e-12)

    def test_stays_in_frequency_range(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            spec = spectrum_of(rng.standard_normal(50))
            assert 0.0 <= spectral_centroid(spec) <= 0.5

    def test_all_zero_is_degenerate(self):
        spec = Spectrum(np.arange(5) / 8, np.zeros(5), 8)
        with pytest.raises(DegenerateKernelError):
            spectral_centroid(spec)


class TestBandEnergies:
    def test_dc_only(self):
        spec = spectrum_of(np.ones(8))
        e_low, e_high = band_energies(spec)
        assert e_low == pytest.approx(8.0, rel=1e-12)
        assert e_high == pytest.approx(0.0, abs=1e-11)

    def test_nyquist_only(self):
        values = np.array([1.0, -1.0] * 8)
        e_low, e_high = band_energies(spectrum_of(values))
        assert e_low == pytest.approx(0.0, abs=1e-11)
        assert e_high == pytest.approx(16.0, rel=1e-12)

    def test_uniform_hundred_bin_counts(self):
        # f <= 0.05 covers bins 0..5, f >= 0.30 covers bins 30..50
        spec = spectrum_of([1.0] + [0.0] * 99)
        e_low, e_high = band_energies(spec)
        assert e_low == 6.0
        assert e_high == 21.0

    def test_custom_fractions(self):
        spec = spectrum_of([1.0] + [0.0] * 99)
        e_low, e_high = band_energies(spec, low_fraction=0.2, high_fraction=0.2)
        assert e_low == 11.0
        assert e_high == 11.0

    def test_fraction_validation(self):
        spec = spectrum_of(np.ones(8))
        with pytest.raises(ValueError):
            band_energies(spec, low_fraction=0.0)
        with pytest.raises(ValueError):
            band_energies(spec, high_fraction=1.5)
        with pytest.raises(ValueError):
            band_energies(spec, low_fraction=0.7, high_fraction=0.7)


class TestLhfr:
    def test_plain_ratio(self):
        assert lhfr(6.0, 21.0) == 6 / 21

    def test_zero_high_tail_is_infinite(self):
        assert lhfr(5.0, 0.0) == math.inf

    def test_zero_low_tail(self):
        assert lhfr(0.0, 4.0) == 0.0

    def test_both_zero_is_degenerate(self):
        with pytest.raises(DegenerateKernelError):
            lhfr(0.0, 0.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            lhfr(-1.0, 2.0)
        with pytest.raises(ValueError):
            lhfr(1.0, -2.0)


class TestDominantFrequency:
    def test_dc_peak(self):
        assert dominant_frequency(spectrum_of(np.ones(8))) == 0.0

    def test_interior_peak(self):
        spec = Spectrum(np.arange(5) / 8, np.array([1, 5, 1, 1, 1.0]), 8)
        assert dominant_frequency(spec) == 0.125

    def test_tie_takes_lowest_frequency(self):
        spec = Spectrum(np.arange(5) / 8, np.array([1, 5, 1, 5, 1.0]), 8)
        assert dominant_frequency(spec) == 0.125


class TestSummarize:
    def test_fields_follow_component_functions(self):
        values = np.cos(2 * np.pi * 0.1 * np.arange(200))
        spec = spectrum_of(values)
        summary = summarize(spec)
        assert summary.centroid == spectral_centroid(spec)
        assert (summary.e_low, summary.e_high) == band_energies(spec)
        assert summary.dominant_frequency == dominant_frequency(spec)
        assert summary.total_magnitude == pytest.approx(spec.magnitudes.sum())

    def test_tail_free_midband_spike(self):
        spec = Spectrum(np.arange(9) / 16, np.eye(9)[4], 16)
        summary = summarize(spec)
        assert summary.tail_free
        assert summary.lhfr == 1.0
        assert summary.e_low == 0.0 and summary.e_high == 0.0

    def test_tail_dust_below_floor_is_ignored(self):
        mags = np.zeros(9)
        mags[4] = 1.0
        mags[0] = 1e-9
        mags[8] = 2e-9
        summary = summarize(Spectrum(np.arange(9) / 16, mags, 16))
        assert summary.tail_free
        assert summary.lhfr == 1.0

    def test_real_tails_are_not_suppressed(self):
        summary = summarize(spectrum_of([1.0] + [0.0] * 99))
        assert not summary.tail_free
        assert summary.lhfr == 6 / 21

    def test_all_zero_kernel_is_degenerate(self):
        with pytest.raises(DegenerateKernelError):
            summarize(spectrum_of(np.zeros(16)))

    def test_kernel_metadata_carried(self):
        kern = Kernel(np.ones(8), layer=2, direction=Direction.BACKWARD)
        assert kern.layer == 2
        assert kern.direction is Direction.BACKWARD
