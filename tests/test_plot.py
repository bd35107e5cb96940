import re
from xml.etree import ElementTree

import numpy as np
import pytest

from spectrobe import FilterClass, Kernel, SynthSpec, compute_spectrum, summarize, synth_kernel
from spectrobe.plot import LEFT, RIGHT, emit_plot, frequency_to_x, magnitude_to_y

SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def render(values, **kwargs):
    spectrum = compute_spectrum(Kernel(np.asarray(values, dtype=np.float64)))
    return spectrum, emit_plot(spectrum, summarize(spectrum), **kwargs)


def data_circle_x(svg):
    # the data marker precedes the legend circle
    return float(re.findall(r'<circle cx="([-\d.]+)"', svg)[0])


def data_triangle_apex_x(svg):
    points = re.findall(r'<polygon points="([-\d., ]+)"', svg)[0]
    return float(points.split()[0].split(",")[0])


def x_to_frequency(x):
    return (x - LEFT) / (RIGHT - LEFT) * 0.5


class TestMarkers:
    def test_dc_only_markers_sit_at_zero(self):
        _, svg = render(np.ones(32))
        assert data_circle_x(svg) == pytest.approx(frequency_to_x(0.0), abs=0.01)
        assert data_triangle_apex_x(svg) == pytest.approx(
            frequency_to_x(0.0), abs=0.01
        )

    def test_single_bin_spike_markers_coincide(self):
        # cosine at bin 8 of 32: both markers at f = 0.25
        values = np.cos(2 * np.pi * 0.25 * np.arange(32))
        _, svg = render(values)
        expected = frequency_to_x(0.25)
        assert data_circle_x(svg) == pytest.approx(expected, abs=0.01)
        assert data_triangle_apex_x(svg) == pytest.approx(expected, abs=0.01)

    def test_band_kernel_markers_stay_inside_the_band(self):
        kern = synth_kernel(
            SynthSpec(FilterClass.BAND_PASS, 0.2, cutoff_high=0.3, length=128)
        )
        spectrum = compute_spectrum(kern)
        svg = emit_plot(spectrum, summarize(spectrum))
        assert 0.2 <= x_to_frequency(data_circle_x(svg)) <= 0.3
        assert 0.2 <= x_to_frequency(data_triangle_apex_x(svg)) <= 0.3


class TestSvgShape:
    def test_curve_covers_every_bin(self):
        spectrum, svg = render(np.arange(40, dtype=float))
        polyline = re.search(r'<polyline[^>]+points="([^"]+)"', svg).group(1)
        assert len(polyline.split()) == spectrum.frequencies.size

    def test_byte_determinism(self):
        _, first = render(np.arange(24, dtype=float))
        _, second = render(np.arange(24, dtype=float))
        assert first == second

    def test_writes_the_returned_string(self, tmp_path):
        out = tmp_path / "spec.svg"
        _, svg = render(np.ones(16), path=out)
        assert out.read_text() == svg
        assert not list(tmp_path.glob("*.tmp"))

    def test_title_is_escaped(self):
        _, svg = render(np.ones(16), title="layer <1> & friends")
        assert "layer &lt;1&gt; &amp; friends" in svg
        assert "<1>" not in svg

    def test_title_is_well_formed_xml(self):
        # control characters and lone surrogates cannot appear in XML 1.0
        _, svg = render(np.ones(16), title="m\x01\x1f\ud800\ufffe\tk0 & <b>")
        texts = [t.text for t in ElementTree.fromstring(svg).iter(SVG_TEXT)]
        assert "m\ufffd\ufffd\ufffd\ufffd\tk0 & <b>" in texts

    def test_zero_spectrum_is_rejected(self):
        from spectrobe import Spectrum

        spec = Spectrum(np.arange(5) / 8, np.zeros(5), 8)
        with pytest.raises(ValueError, match="no energy"):
            emit_plot(spec, summarize_stub())


def per_point_polyline(spectrum):
    """The polyline text as emit_plot built it one point at a time."""
    peak = float(spectrum.magnitudes.max())
    return " ".join(
        f"{frequency_to_x(f):.2f},{magnitude_to_y(m, peak):.2f}"
        for f, m in zip(spectrum.frequencies.tolist(), spectrum.magnitudes.tolist())
    )


class TestPolyline:
    @pytest.mark.parametrize("n", [2, 3, 7, 1023, 1024, 4096])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_per_point_text(self, n, seed):
        from spectrobe import Spectrum

        rng = np.random.default_rng([n, seed])
        freqs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 0.5, n - 1))))
        # one chart spanning 1e-300..1e300, one at a single random scale
        for mags in (10.0 ** rng.uniform(-300, 300, n),
                     10.0 ** rng.uniform(-300, 300) * rng.random(n)):
            spectrum = Spectrum(freqs, mags, 2 * (n - 1))
            svg = emit_plot(spectrum, summarize_stub())
            polyline = re.search(r'<polyline[^>]+points="([^"]+)"', svg).group(1)
            assert polyline == per_point_polyline(spectrum)


def summarize_stub():
    from spectrobe import SpectralSummary

    return SpectralSummary(
        centroid=0.25, e_low=0.0, e_high=0.0, lhfr=1.0,
        dominant_frequency=0.25, total_magnitude=0.0, tail_free=True,
    )
