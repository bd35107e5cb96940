import math
import re
import warnings

import numpy as np
import pytest

from oracles import dft_two_sided, one_sided_magnitudes
from oracles import spectral_centroid as centroid_oracle
from spectrobe import (
    DEFAULT_CONFIG,
    DegenerateKernelError,
    Direction,
    Kernel,
    LabeledPoint,
    PairTask,
    RunConfig,
    S4DParams,
    Spectrum,
    build_pairs,
    compute_spectrum,
    predict,
    run_directprobe,
    summarize,
)
from spectrobe.spectral import as_array, first_nonfinite, summary_fields


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

    def test_an_overflowing_spectrum_is_degenerate(self):
        # a finite kernel whose DC bin overflows: degenerate, as
        # analyze_bundle marks it, and no overflow warning leaks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateKernelError,
                               match="all-zero spectrum, or one whose total overflows"):
                compute_spectrum(Kernel(np.full(64, 1e307)))

    def test_rejects_short_and_multidim(self):
        with pytest.raises(ValueError):
            Kernel(np.array([1.0]))
        with pytest.raises(ValueError):
            Kernel(np.ones((4, 4)))

    def test_rejects_slots_out_of_range(self):
        with pytest.raises(ValueError, match="layer must be >= 1, got 0"):
            Kernel(np.ones(4), layer=0)
        with pytest.raises(ValueError, match="kernel_index must be >= 0, got -1"):
            Kernel(np.ones(4), kernel_index=-1)

    def test_spectrum_validates_shape(self):
        with pytest.raises(ValueError):
            Spectrum(np.arange(4) / 8, np.ones(5), source_length=8)
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 0.3, 0.2]), np.ones(3), source_length=4)
        grid = np.arange(3) / 4
        with pytest.raises(ValueError, match="source_length must be >= 2, got 1"):
            Spectrum(np.zeros(1), np.ones(1), source_length=1)
        with pytest.raises(ValueError, match="must have equal length"):
            Spectrum(grid, np.ones(4), source_length=4)
        with pytest.raises(ValueError, match="must not exceed 0.5"):
            Spectrum(np.array([0.0, 0.25, 0.6]), np.ones(3), source_length=4)
        with pytest.raises(ValueError, match="must be nonnegative"):
            Spectrum(grid, np.array([1.0, -1.0, 1.0]), source_length=4)


def centroid_of(spec):
    return summarize(spec).centroid


class TestSpectralCentroid:
    def test_point_mass(self):
        spec = Spectrum(np.arange(5) / 8, np.array([0, 0, 1, 0, 0.0]), 8)
        assert centroid_of(spec) == 0.25

    def test_uniform_is_midpoint(self):
        spec = spectrum_of([1.0] + [0.0] * 7)
        assert centroid_of(spec) == pytest.approx(0.25, abs=1e-15)

    def test_weighted_example(self):
        # mass 1 at 0.25 and 3 at 0.5 lands on (0.25 + 1.5) / 4
        spec = Spectrum(np.arange(5) / 8, np.array([0, 0, 1, 0, 3.0]), 8)
        assert centroid_of(spec) == pytest.approx(0.4375)

    def test_dc_mass_is_counted(self):
        spec = Spectrum(np.arange(5) / 8, np.array([1, 0, 0, 0, 3.0]), 8)
        assert centroid_of(spec) == pytest.approx(0.375)

    def test_matches_longhand_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            values = rng.standard_normal(96)
            spec = compute_spectrum(Kernel(values))
            expected = centroid_oracle(spec.frequencies, spec.magnitudes)
            assert centroid_of(spec) == pytest.approx(expected, abs=1e-12)

    def test_stays_in_frequency_range(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            spec = spectrum_of(rng.standard_normal(50))
            assert 0.0 <= centroid_of(spec) <= 0.5

    def test_all_zero_is_degenerate(self):
        spec = Spectrum(np.arange(5) / 8, np.zeros(5), 8)
        with pytest.raises(DegenerateKernelError):
            centroid_of(spec)

    def test_an_infinite_total_is_degenerate(self):
        # finite magnitudes whose sum overflows: no centroid to report, and
        # no overflow warning leaks
        spec = Spectrum(np.arange(5) / 8, np.full(5, 1e308), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateKernelError,
                               match="all-zero spectrum, or one whose total overflows"):
                summarize(spec)


def bands_of(spec, config=DEFAULT_CONFIG):
    summary = summarize(spec, config)
    return summary.e_low, summary.e_high


class TestBandEnergies:
    def test_dc_only(self):
        spec = spectrum_of(np.ones(8))
        e_low, e_high = bands_of(spec)
        assert e_low == pytest.approx(8.0, rel=1e-12)
        assert e_high == pytest.approx(0.0, abs=1e-11)

    def test_nyquist_only(self):
        values = np.array([1.0, -1.0] * 8)
        e_low, e_high = bands_of(spectrum_of(values))
        assert e_low == pytest.approx(0.0, abs=1e-11)
        assert e_high == pytest.approx(16.0, rel=1e-12)

    def test_uniform_hundred_bin_counts(self):
        # f <= 0.05 covers bins 0..5, f >= 0.30 covers bins 30..50
        spec = spectrum_of([1.0] + [0.0] * 99)
        e_low, e_high = bands_of(spec)
        assert e_low == 6.0
        assert e_high == 21.0

    def test_custom_fractions(self):
        spec = spectrum_of([1.0] + [0.0] * 99)
        e_low, e_high = bands_of(
            spec, RunConfig(low_band_fraction=0.2, high_band_fraction=0.2)
        )
        assert e_low == 11.0
        assert e_high == 11.0


def ratio_of(mags):
    return summarize(Spectrum(np.arange(9) / 16, np.asarray(mags, float), 16)).lhfr


class TestLhfr:
    # on the 16-point grid the low band is bin 0 and the high band bins 5..8

    def test_plain_ratio(self):
        assert ratio_of([3, 0, 0, 0, 1, 2, 0, 0, 5]) == 3 / 7

    def test_zero_high_tail_is_infinite(self):
        assert ratio_of([5, 0, 0, 0, 0, 0, 0, 0, 0]) == math.inf

    def test_zero_low_tail(self):
        assert ratio_of([0, 0, 0, 0, 0, 0, 0, 4, 0]) == 0.0

    def test_both_zero_is_degenerate(self):
        # empty bands read as tail-free while the spectrum has energy
        assert ratio_of(np.eye(9)[4]) == 1.0
        with pytest.raises(DegenerateKernelError):
            ratio_of(np.zeros(9))


class TestDominantFrequency:
    def test_dc_peak(self):
        assert summarize(spectrum_of(np.ones(8))).dominant_frequency == 0.0

    def test_interior_peak(self):
        spec = Spectrum(np.arange(5) / 8, np.array([1, 5, 1, 1, 1.0]), 8)
        assert summarize(spec).dominant_frequency == 0.125

    def test_tie_takes_lowest_frequency(self):
        spec = Spectrum(np.arange(5) / 8, np.array([1, 5, 1, 5, 1.0]), 8)
        assert summarize(spec).dominant_frequency == 0.125


class TestSummarize:
    def test_fields_follow_component_functions(self):
        # summarize is the one-row case of summary_fields over a batch
        rng = np.random.default_rng(3)
        values = np.cos(2 * np.pi * 0.1 * np.arange(200))
        rows = np.stack([values, rng.standard_normal(200)])
        spec = spectrum_of(values)
        batch = summary_fields(spec.frequencies, np.abs(np.fft.rfft(rows)), DEFAULT_CONFIG)
        summary = summarize(spec)
        for name, column in batch.items():
            assert getattr(summary, name) == column[0].item()
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


# Every entry point that takes a vector goes through spectral.as_array:
# (name the error gives the input, constructor from a candidate vector)
_FIVE_D = run_directprobe([LabeledPoint(np.zeros(5), "a")])
VECTOR_INPUTS = {
    "kernel": lambda v: Kernel(v),
    "magnitudes": lambda v: Spectrum(np.arange(5) / 8, v, source_length=8),
    "poles": lambda v: S4DParams(-v, np.ones(5), 0.1),
    "vector": lambda v: LabeledPoint(v, "a"),
    "representation 't'": lambda v: build_pairs({"t": v}, [], PairTask.DISTANCE),
    "query": lambda v: predict(_FIVE_D, v),
}


@pytest.mark.parametrize("what", sorted(VECTOR_INPUTS))
def test_vector_inputs_share_one_check(what):
    make = VECTOR_INPUTS[what]
    good = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    make(good)
    with pytest.raises(ValueError, match=re.escape(f"{what} must be 1-D")):
        make(good[None, :])
    bad = good.copy()
    bad[2] = np.nan
    with pytest.raises(ValueError, match=re.escape(
            f"{what} has a non-finite value at index 2")):
        make(bad)


@pytest.mark.parametrize("what", sorted(set(VECTOR_INPUTS) - {"poles"}))
def test_real_vector_inputs_refuse_complex_values(what):
    # a real cast would drop the imaginary part and only warn; poles are complex
    with pytest.raises(ValueError, match=re.escape(
            f"{what} must be real, got complex values")):
        VECTOR_INPUTS[what](np.array([1 + 1j, 2, 3j, 4, 5]))


@pytest.mark.parametrize("values, message", [
    (np.array([1j, 1], dtype=object), "x must be real, got complex values"),
    # numpy would cast this one with only a ComplexWarning, dropping 1j
    (np.array([np.complex128(1j), 1], dtype=object), "x must be real, got complex values"),
    (np.array(["a", 1], dtype=object), "x cannot be read as a float64 array"),
    ([[1, 2], [3]], "x cannot be read as a float64 array"),
    ([10 ** 400, 1], "x cannot be read as a float64 array"),
], ids=["object-complex", "object-numpy-complex", "object-str", "ragged", "huge-int"])
def test_as_array_names_every_refused_cast(values, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            as_array(values, "x")
    assert str(caught.value) == message


def test_as_array_keeps_only_a_read_only_owning_array_of_its_dtype():
    kept, narrow = np.arange(4.0), np.arange(4.0, dtype=np.float32)
    kept.flags.writeable = narrow.flags.writeable = False
    assert as_array(kept, "x") is kept
    assert as_array(narrow, "x", dtype=np.float32) is narrow
    writeable = np.arange(4.0)
    for copied in (writeable, kept[1:], narrow, [0.0, 1.0]):
        got = as_array(copied, "x")
        assert got is not copied and got.dtype == np.float64
        assert not got.flags.writeable and got.flags.owndata
    got = as_array(writeable, "x")
    writeable[0] = 5.0  # a copy shares no memory with its input
    assert got[0] == 0.0


@pytest.mark.parametrize("values, index", [
    (np.ones(3), None),
    (np.empty((0, 2)), None),
    (np.array([1.0, np.nan, np.inf]), (1,)),
    (np.array([[1.0, 2.0], [3.0, -np.inf]]), (1, 1)),
    (np.array([[1.0, 2.0], [np.nan, 4.0]]).T, (0, 1)),  # C order of the index, not of memory
    (np.array([1.0, np.nan], dtype=np.float32), (1,)),
])
def test_first_nonfinite(values, index):
    got = first_nonfinite(values)
    assert got == index
    assert got is None or all(type(i) is int for i in got)


@pytest.mark.parametrize("make, message", [
    (lambda: Kernel(np.ones(4), layer=1.5), "layer must be an integer, got 1.5"),
    (lambda: Kernel(np.ones(4), layer=True), "layer must be an integer, got True"),
    (lambda: Kernel(np.ones(4), kernel_index="0"), "kernel_index must be an integer, got '0'"),
    (lambda: Kernel(np.ones(4), kernel_index=np.float64(0)),
     "kernel_index must be an integer, got np.float64(0.0)"),
], ids=["float-layer", "bool-layer", "str-index", "numpy-float-index"])
def test_kernel_slot_must_be_an_integer(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_kernel_slot_takes_numpy_integers():
    kernel = Kernel(np.ones(4), layer=np.int64(2), kernel_index=np.uint8(3))
    assert (kernel.layer, kernel.kernel_index) == (2, 3)
