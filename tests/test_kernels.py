import json

import numpy as np
import pytest

import spectrobe.cli as cli
from oracles import s4d_recurrence
from spectrobe import (
    Confidence,
    Direction,
    FilterClass,
    Kernel,
    S4DParams,
    StabilityError,
    SynthSpec,
    categorize,
    compute_spectrum,
    materialize_s4d,
    summarize,
    synth_kernel,
)

LOW = FilterClass.LOW_PASS
BAND = FilterClass.BAND_PASS
HIGH = FilterClass.HIGH_PASS
FWD = Direction.FORWARD
BWD = Direction.BACKWARD


def classify_values(values):
    return categorize(summarize(compute_spectrum(Kernel(values))))


def random_stable_params(rng, max_modes=16):
    modes = int(rng.integers(1, max_modes + 1))
    poles = -rng.uniform(0.05, 2.0, modes) + 1j * rng.normal(0.0, 3.0, modes)
    coeffs = rng.normal(0.0, 1.0, modes) + 1j * rng.normal(0.0, 1.0, modes)
    return S4DParams(poles, coeffs, step=float(rng.uniform(0.02, 0.4)))


class TestS4DParams:
    def test_pole_on_axis_rejected(self):
        with pytest.raises(StabilityError):
            S4DParams(np.array([0.0 + 1j]), np.array([1.0 + 0j]), 0.1)

    def test_unstable_pole_named(self):
        with pytest.raises(StabilityError, match="pole 1"):
            S4DParams(np.array([-1.0, 0.2 + 3j]), np.array([1.0, 1.0]), 0.1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            S4DParams(np.array([-1.0 + 0j]), np.array([1.0, 2.0]), 0.1)

    def test_step_must_be_positive(self):
        for step in (0.0, -0.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="step must be positive and finite"):
                S4DParams(np.array([-1.0 + 0j]), np.array([1.0 + 0j]), step)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "pole, coefficient, step",
        [(-1e308, 1.0, 10.0), (-1.0 + 1e308j, 1.0, 10.0), (-1e-3, 1e308, 10.0)],
        ids=["step-times-pole", "step-times-imaginary-part", "coefficient"],
    )
    def test_overflowing_params_rejected_without_warnings(self, pole, coefficient,
                                                          step):
        with pytest.raises(ValueError, match="kernel overflows float64"):
            S4DParams(np.array([pole]), np.array([coefficient]), step)

    def test_state_size(self):
        params = S4DParams(np.array([-1.0, -2.0]), np.array([1.0, 1.0]), 0.1)
        assert params.state_size == 2


class TestMaterialize:
    def test_zero_modes_gives_zero_kernel(self):
        params = S4DParams(np.array([]), np.array([]), 0.1)
        kern = materialize_s4d(params, 32)
        np.testing.assert_array_equal(kern.values, np.zeros(32))

    def test_single_mode_matches_recurrence(self):
        params = S4DParams(np.array([-1.0 + 2j]), np.array([0.5 - 1j]), 0.1)
        kern = materialize_s4d(params, 64)
        expected = s4d_recurrence(params.poles, params.coefficients, 0.1, 64)
        assert np.abs(kern.values - expected).max() < 1e-12

    def test_random_params_match_recurrence(self):
        rng = np.random.default_rng(314159)
        for _ in range(25):
            params = random_stable_params(rng)
            length = int(rng.integers(2, 257))
            kern = materialize_s4d(params, length)
            expected = s4d_recurrence(
                params.poles, params.coefficients, params.step, length
            )
            assert np.abs(kern.values - expected).max() < 1e-6

    def test_real_pole_decays_geometrically(self):
        params = S4DParams(np.array([-0.7 + 0j]), np.array([2.0 + 0j]), 0.1)
        values = materialize_s4d(params, 40).values
        ratio = np.exp(0.1 * -0.7)
        np.testing.assert_allclose(values[1:] / values[:-1], ratio, rtol=1e-10)

    def test_tail_is_negligible_at_twice_the_length(self):
        # strong damping: the second half of a doubled kernel is dust
        rng = np.random.default_rng(2718)
        for _ in range(10):
            modes = int(rng.integers(1, 9))
            params = S4DParams(
                -rng.uniform(0.5, 2.0, modes) + 1j * rng.normal(0, 2, modes),
                rng.normal(0, 1, modes) + 1j * rng.normal(0, 1, modes),
                step=float(rng.uniform(0.2, 0.5)),
            )
            doubled = materialize_s4d(params, 1024).values
            tail = np.abs(doubled[512:]).sum()
            total = np.abs(doubled).sum()
            assert tail < 1e-3 * total

    # lengths 2, 3, perfect squares and squares +- 1, up to 4096; modes and
    # steps spread over 1..64 and 1e-3..0.5
    @pytest.mark.parametrize("modes,step,length", [
        (1, 1e-3, 2), (64, 0.5, 2), (3, 0.5, 3), (1, 0.01, 4), (7, 0.2, 5),
        (64, 1e-3, 8), (2, 0.1, 9), (16, 0.05, 10), (5, 0.5, 15),
        (33, 0.01, 16), (8, 0.3, 17), (1, 0.5, 99), (64, 0.02, 100),
        (12, 1e-3, 101), (4, 0.1, 1000), (64, 0.5, 1023), (32, 0.01, 1024),
        (9, 0.25, 1025), (64, 1e-3, 4095), (48, 0.05, 4096),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_recurrence_at_any_length(self, modes, step, length, seed):
        rng = np.random.default_rng([seed, modes, length])
        poles = -rng.uniform(0.01, 2.0, modes) + 1j * rng.uniform(-100, 100, modes)
        coeffs = rng.normal(0.0, 1.0, modes) + 1j * rng.normal(0.0, 1.0, modes)
        params = S4DParams(poles, coeffs, step)
        got = materialize_s4d(params, length).values
        expected = s4d_recurrence(poles, coeffs, step, length)
        # every |K[l]| is bounded by sum_n |c_n * bbar_n|
        bound = np.abs(coeffs * (np.exp(step * poles) - 1.0) / poles).sum()
        assert np.abs(got - expected).max() <= 1e-9 * bound

    @pytest.mark.parametrize("short,long", [(2, 3), (15, 16), (16, 17),
                                            (99, 4096), (1000, 16384)])
    def test_prefix_of_a_longer_kernel(self, short, long):
        # the block size follows the length, so the two runs block differently
        rng = np.random.default_rng(short)
        params = S4DParams(
            -0.5 + 1j * np.pi * np.arange(32),
            rng.normal(size=32) + 1j * rng.normal(size=32),
            step=0.01,
        )
        full = materialize_s4d(params, long).values
        head = materialize_s4d(params, short).values
        assert np.abs(head - full[:short]).max() <= 1e-12 * np.abs(full).max()

    def test_strongly_damped_pole_gives_finite_zeros(self):
        # step * Re(a) * length = -4096: the tail underflows to exact zeros
        params = S4DParams(np.array([-2.0 + 30j]), np.array([1.0 - 1j]), 0.5)
        values = materialize_s4d(params, 4096).values
        assert np.all(np.isfinite(values))
        assert np.all(values[800:] == 0.0)
        expected = s4d_recurrence(params.poles, params.coefficients, 0.5, 4096)
        assert np.abs(values - expected).max() < 1e-12

    def test_cli_payloads_repeat_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(9)
        doc = {"model_tag": "s4d", "step": 0.01, "layers": [
            {"layer": 1, **{direction: [
                {"modes": [{"a": [-0.5, np.pi * n], "c": list(rng.normal(size=2))}
                           for n in range(32)]}
                for _ in range(2)] for direction in ("forward", "backward")}}]}
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        payloads = []
        for run in ("one", "two"):
            out = tmp_path / run
            assert cli.main(["materialize", "--params", str(params),
                             "--length", "4096", "--out", str(out)]) == 0
            payloads.append({p.name: p.read_bytes() for p in out.glob("*.f32")})
        assert len(payloads[0]) == 4
        assert payloads[0] == payloads[1]

    def test_length_validation(self):
        params = S4DParams(np.array([-1.0 + 0j]), np.array([1.0 + 0j]), 0.1)
        with pytest.raises(ValueError):
            materialize_s4d(params, 1)

    def test_metadata_passthrough(self):
        # the kernel comes unplaced; Kernel places its values unchanged
        params = S4DParams(np.array([-1.0 + 0j]), np.array([1.0 + 0j]), 0.1)
        kern = materialize_s4d(params, 16)
        assert (kern.layer, kern.direction, kern.kernel_index) == (1, FWD, 0)
        placed = Kernel(kern.values, layer=3, direction=BWD, kernel_index=2)
        assert (placed.layer, placed.direction, placed.kernel_index) == (3, BWD, 2)
        np.testing.assert_array_equal(placed.values, kern.values)


class TestSynth:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (SynthSpec(LOW, 0.05), LOW),
            (SynthSpec(LOW, 0.03, length=100), LOW),
            (SynthSpec(HIGH, 0.45), HIGH),
            (SynthSpec(HIGH, 0.46, length=129), HIGH),
            (SynthSpec(BAND, 0.2, cutoff_high=0.3), BAND),
            (SynthSpec(BAND, 0.12, cutoff_high=0.25, length=200), BAND),
        ],
    )
    def test_each_class_lands_with_agreement(self, spec, expected):
        got = classify_values(synth_kernel(spec).values)
        assert got.combined is expected
        assert got.confidence is Confidence.AGREE

    def test_low_pass_has_unit_dc_gain(self):
        values = synth_kernel(SynthSpec(LOW, 0.04)).values
        assert values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_high_pass_is_spectral_inversion(self):
        low = synth_kernel(SynthSpec(LOW, 0.04)).values
        high = synth_kernel(SynthSpec(HIGH, 0.04)).values
        delta = np.zeros(low.size)
        delta[(255 - 1) // 2] = 1.0  # odd tap count at length 256
        np.testing.assert_allclose(low + high, delta, atol=1e-15)

    def test_band_pass_owns_only_interior_bins(self):
        kern = synth_kernel(SynthSpec(BAND, 0.2, cutoff_high=0.3, length=100))
        spec = compute_spectrum(kern)
        inside = (spec.frequencies > 0.2) & (spec.frequencies < 0.3)
        assert spec.magnitudes[inside].min() > 0.9
        assert spec.magnitudes[~inside].max() < 1e-9

    def test_band_with_no_interior_bins_is_an_error(self):
        with pytest.raises(ValueError, match="no spectrum bins"):
            synth_kernel(SynthSpec(BAND, 0.2, cutoff_high=0.201, length=16))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(LOW, 0.0)
        with pytest.raises(ValueError):
            SynthSpec(HIGH, 0.5)
        with pytest.raises(ValueError):
            SynthSpec(BAND, 0.2)
        with pytest.raises(ValueError):
            SynthSpec(BAND, 0.3, cutoff_high=0.2)
        with pytest.raises(ValueError, match="cutoff_high 0.5 outside"):
            SynthSpec(BAND, 0.2, cutoff_high=0.5)
        with pytest.raises(ValueError):
            SynthSpec(LOW, 0.1, cutoff_high=0.2)
        with pytest.raises(ValueError):
            SynthSpec(LOW, 0.1, length=8)

    def test_metadata_passthrough(self):
        # the kernel comes unplaced; Kernel places its values unchanged
        kern = synth_kernel(SynthSpec(LOW, 0.03))
        assert (kern.layer, kern.direction, kern.kernel_index) == (1, FWD, 0)
        placed = Kernel(kern.values, layer=4, direction=BWD)
        assert (placed.layer, placed.direction) == (4, BWD)
        np.testing.assert_array_equal(placed.values, kern.values)
