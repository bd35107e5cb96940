import warnings
import weakref

import numpy as np
import pytest

import spectrobe.analysis
from helpers import class_pair_bundle, random_bundle, synth_for
from spectrobe import (
    Categorization,
    Complementarity,
    Confidence,
    DEFAULT_CONFIG,
    Direction,
    FilterClass,
    Kernel,
    KernelAnalysis,
    KernelBundle,
    LayerReport,
    RunConfig,
    Spectrum,
    analyze_bundle,
    analyze_redundancy,
    categorize,
    compute_spectrum,
    detect_complementary,
    diff_bundles,
    read_bundle,
    summarize,
    synth_kernel,
    SynthSpec,
    write_bundle,
)

LOW = FilterClass.LOW_PASS
BAND = FilterClass.BAND_PASS
HIGH = FilterClass.HIGH_PASS
FWD = Direction.FORWARD
BWD = Direction.BACKWARD


def band_bundle(tag, layer_edges, length=256):
    """One band-pass kernel per direction per layer; edges per layer."""
    kernels = []
    for layer, (lo, hi) in enumerate(layer_edges, start=1):
        for direction in (FWD, BWD):
            spec = SynthSpec(BAND, lo, cutoff_high=hi, length=length)
            kernels.append(Kernel(synth_kernel(spec).values, layer, direction))
    return KernelBundle.from_kernels(tag, kernels)


class TestKernelBundle:
    def test_missing_backward_rejected(self):
        with pytest.raises(ValueError, match="backward"):
            KernelBundle.from_kernels("m", [synth_for(LOW, 1, FWD)])

    def test_non_contiguous_layers_rejected(self):
        kernels = [
            synth_for(LOW, 1, FWD),
            synth_for(LOW, 1, BWD),
            synth_for(LOW, 3, FWD),
            synth_for(LOW, 3, BWD),
        ]
        with pytest.raises(ValueError, match="layer 2 forward kernel 0 is missing"):
            KernelBundle.from_kernels("m", kernels)

    def test_length_mismatch_rejected(self):
        kernels = [
            synth_for(LOW, 1, FWD, length=256),
            synth_for(LOW, 1, BWD, length=128),
        ]
        with pytest.raises(ValueError, match="lengths differ"):
            KernelBundle.from_kernels("m", kernels)

    def test_kernel_index_gaps_rejected(self):
        kernels = [
            synth_for(LOW, 1, FWD, kernel_index=0),
            synth_for(LOW, 1, FWD, kernel_index=2),
            synth_for(LOW, 1, BWD, kernel_index=0),
            synth_for(LOW, 1, BWD, kernel_index=1),
        ]
        with pytest.raises(ValueError, match="layer 1 forward kernel 1 is missing"):
            KernelBundle.from_kernels("m", kernels)

    def test_uneven_kernel_counts_rejected(self):
        kernels = [
            synth_for(LOW, 1, FWD, kernel_index=0),
            synth_for(LOW, 1, FWD, kernel_index=1),
            synth_for(LOW, 1, BWD, kernel_index=0),
        ]
        with pytest.raises(ValueError, match="layer 1 backward kernel 1 is missing"):
            KernelBundle.from_kernels("m", kernels)

    def test_iteration_order_is_canonical(self):
        rng = np.random.default_rng(5)
        bundle = random_bundle("m", rng, layer_count=2, kernel_count=2, length=32)
        seen = [(k.layer, k.direction, k.kernel_index) for k in bundle.iter_kernels()]
        assert seen == [
            (1, FWD, 0), (1, FWD, 1), (1, BWD, 0), (1, BWD, 1),
            (2, FWD, 0), (2, FWD, 1), (2, BWD, 0), (2, BWD, 1),
        ]

    def test_values_are_one_read_only_array(self):
        rng = np.random.default_rng(7)
        bundle = random_bundle("m", rng, layer_count=2, kernel_count=3, length=16)
        assert bundle.values.shape == (2, 2, 3, 16)
        assert not bundle.values.flags.writeable
        for kernel in bundle.iter_kernels():
            d = 0 if kernel.direction is FWD else 1
            np.testing.assert_array_equal(
                bundle.values[kernel.layer - 1, d, kernel.kernel_index], kernel.values
            )
        with pytest.raises(ValueError, match="shape"):
            KernelBundle("m", np.zeros((2, 3, 1, 16)))
        with pytest.raises(ValueError, match="finite"):
            KernelBundle("m", np.full((1, 2, 1, 16), np.nan))

    def test_complex_values_are_refused(self):
        # a real cast would drop the imaginary part and only warn
        values = np.ones((1, 2, 1, 16), dtype=complex)
        values[0, 1, 0, 3] = 1j
        with pytest.raises(ValueError, match="bundle values must be real, got complex"):
            KernelBundle("m", values)

    def test_a_model_tag_that_is_not_a_str_is_refused(self):
        # read_bundle refuses such a manifest, so no bundle may hold one
        with pytest.raises(ValueError) as caught:
            KernelBundle(5, np.zeros((1, 2, 1, 4)))
        assert str(caught.value) == "model_tag must be str, got int"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_only_owning_array_is_kept(self, dtype):
        values = np.ones((1, 2, 1, 16), dtype=dtype)
        values.flags.writeable = False
        assert KernelBundle("m", values).values is values
        writeable = np.ones((1, 2, 1, 16), dtype=dtype)
        copied = KernelBundle("m", writeable).values
        assert copied is not writeable and copied.dtype == dtype
        assert not copied.flags.writeable

    def test_non_finite_value_is_named_by_its_index(self):
        values = np.ones((2, 2, 1, 16), dtype=np.float32)
        values[0, 1, 0, 3] = np.inf
        values[1, 0, 0, 0] = np.nan
        with pytest.raises(ValueError) as caught:
            KernelBundle("m", values)
        assert str(caught.value) == "bundle values has a non-finite value at index 0, 1, 0, 3"

    def test_complex_object_values_are_refused(self):
        values = np.ones((1, 2, 1, 4), dtype=object)
        values[0, 0, 0, 1] = 1j
        with pytest.raises(ValueError) as caught:
            KernelBundle("m", values)
        assert str(caught.value) == "bundle values must be real, got complex values"

    def test_read_only_view_is_copied(self):
        base = np.ones((1, 2, 1, 16))
        view = base.view()
        view.flags.writeable = False
        bundle = KernelBundle("m", view)
        base[:] = 2.0
        assert (bundle.values == 1.0).all()
        assert not bundle.values.flags.writeable

    def test_analyses_build_no_per_kernel_objects(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        write_bundle(random_bundle("m", rng, layer_count=2, kernel_count=2),
                     tmp_path / "b")
        made = []
        for cls in (Kernel, Spectrum):
            def counted(self, original=cls.__post_init__):
                made.append(type(self))
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        bundle = read_bundle(tmp_path / "b")
        analyze_bundle(bundle)
        diff_bundles(bundle, bundle)
        analyze_redundancy(bundle)
        assert made == []
        next(bundle.iter_kernels())
        assert made == [Kernel]

    def test_properties(self):
        bundle = class_pair_bundle("m", [(LOW, HIGH), (BAND, BAND)], length=128)
        assert bundle.layer_count == 2
        assert bundle.length == 128
        assert bundle.kernel_count_per_direction == 1


class TestAnalyzeBundle:
    def test_matches_per_kernel_pipeline(self):
        # the scalar pipeline is the one-row case of analyze_bundle, under
        # the default config and under one that moves all six thresholds
        # into the spread of these kernels (11 of 12 verdicts change)
        rng = np.random.default_rng(40)
        bundle = random_bundle("m", rng, layer_count=3, kernel_count=2, length=64)
        moved = RunConfig(sc_low_bound=0.245, sc_high_bound=0.26,
                          lhfr_low_pass_min=0.6, lhfr_high_pass_max=0.4,
                          low_band_fraction=0.15, high_band_fraction=0.3)
        seen = {}
        for cfg in (DEFAULT_CONFIG, moved):
            by_slot = {
                (report.layer, e.direction, e.kernel_index): e
                for report in analyze_bundle(bundle, cfg)
                for e in report.entries
            }
            for kernel in bundle.iter_kernels():
                summary = summarize(compute_spectrum(kernel), cfg)
                entry = by_slot[(kernel.layer, kernel.direction, kernel.kernel_index)]
                assert entry.summary == summary
                assert entry.categorization == categorize(summary, cfg)
                assert not entry.degenerate
            seen[cfg] = [e.categorization for e in by_slot.values()]
        assert sum(a != b for a, b in zip(seen[DEFAULT_CONFIG], seen[moved])) == 11

    def test_no_layer_spectra_are_alive_during_the_next_fft(self, monkeypatch):
        # a slab's magnitudes are as large as the float32 slab itself
        spectra, refs = spectrobe.analysis.magnitude_spectra, []

        def tracked(values):
            assert [ref() for ref in refs] == [None] * len(refs)
            freqs, mags = spectra(values)
            refs.append(weakref.ref(mags))
            return freqs, mags

        monkeypatch.setattr(spectrobe.analysis, "magnitude_spectra", tracked)
        bundle = random_bundle("m", np.random.default_rng(44), layer_count=3,
                               kernel_count=2, length=32)
        assert len(analyze_bundle(bundle)) == 3
        assert len(refs) == 3

    def test_insertion_order_does_not_matter(self):
        rng = np.random.default_rng(41)
        kernels = list(
            random_bundle("m", rng, layer_count=2, kernel_count=2, length=32)
            .iter_kernels()
        )
        shuffled = list(kernels)
        rng.shuffle(shuffled)
        a = analyze_bundle(KernelBundle.from_kernels("m", kernels))
        b = analyze_bundle(KernelBundle.from_kernels("m", shuffled))
        assert a == b

    def test_classifies_synthetic_classes(self):
        bundle = class_pair_bundle("m", [(HIGH, LOW)])
        entries = analyze_bundle(bundle)[0].entries
        assert entries[0].categorization.combined is HIGH
        assert entries[1].categorization.combined is LOW
        assert all(e.categorization.confidence is Confidence.AGREE for e in entries)

    def test_degenerate_kernel_does_not_stop_the_run(self):
        kernels = [
            Kernel(np.zeros(64), layer=1, direction=FWD),
            synth_for(LOW, 1, BWD, length=64),
            synth_for(HIGH, 2, FWD, length=64),
            synth_for(LOW, 2, BWD, length=64),
        ]
        reports = analyze_bundle(KernelBundle.from_kernels("m", kernels))
        dead = reports[0].entries[0]
        assert dead.degenerate and dead.summary is None and dead.categorization is None
        assert reports[1].entries[0].categorization.combined is HIGH


def single_report(layer, fwd_class, bwd_class):
    def entry(direction, cls):
        if cls is None:
            cat = Categorization(LOW, HIGH, None, Confidence.OUTLIER)
        else:
            cat = Categorization(cls, cls, cls, Confidence.AGREE)
        return KernelAnalysis(direction, 0, None, cat)

    return LayerReport(layer, (entry(FWD, fwd_class), entry(BWD, bwd_class)))


class TestDetectComplementary:
    @pytest.mark.parametrize(
        "fwd,bwd,strength",
        [
            (LOW, HIGH, Complementarity.STRICT),
            (HIGH, LOW, Complementarity.STRICT),
            (BAND, HIGH, Complementarity.WEAK),
            (LOW, BAND, Complementarity.WEAK),
            (LOW, LOW, Complementarity.NONE),
            (HIGH, HIGH, Complementarity.NONE),
            (BAND, BAND, Complementarity.NONE),
            (None, HIGH, Complementarity.NONE),
            (LOW, None, Complementarity.NONE),
        ],
    )
    def test_strength_table(self, fwd, bwd, strength):
        report = detect_complementary([single_report(1, fwd, bwd)])
        row = report.layers[0]
        assert row.strength is strength
        assert row.forward_class is fwd
        assert row.backward_class is bwd

    def test_end_to_end_from_kernels(self):
        bundle = class_pair_bundle(
            "m", [(LOW, LOW), (HIGH, LOW), (BAND, HIGH), (LOW, HIGH)]
        )
        report = detect_complementary(analyze_bundle(bundle))
        strengths = [row.strength for row in report.layers]
        assert strengths == [
            Complementarity.NONE,
            Complementarity.STRICT,
            Complementarity.WEAK,
            Complementarity.STRICT,
        ]

    def test_degenerate_pair_is_none(self):
        kernels = [
            Kernel(np.zeros(64), layer=1, direction=FWD),
            synth_for(HIGH, 1, BWD, length=64),
        ]
        report = detect_complementary(
            analyze_bundle(KernelBundle.from_kernels("m", kernels))
        )
        assert report.layers[0].strength is Complementarity.NONE
        assert report.layers[0].forward_class is None

    def test_multi_kernel_layers_are_refused(self):
        rng = np.random.default_rng(6)
        bundle = random_bundle("m", rng, layer_count=1, kernel_count=2, length=32)
        with pytest.raises(ValueError, match="analyze_redundancy"):
            detect_complementary(analyze_bundle(bundle))

    def test_rows_come_back_in_layer_order(self):
        reports = [single_report(2, LOW, HIGH), single_report(1, LOW, LOW)]
        report = detect_complementary(reports)
        assert [row.layer for row in report.layers] == [1, 2]


class TestDiffBundles:
    def test_identical_bundles_report_no_shift(self):
        bundle = class_pair_bundle("m", [(LOW, LOW), (BAND, LOW)])
        report = diff_bundles(bundle, bundle)
        assert report.flagged_early_layers == ()
        for entry in report.entries:
            assert entry.delta_sc == 0.0
            assert not entry.shifted_high
            assert entry.class_before is entry.class_after

    def test_delta_is_antisymmetric(self):
        before = class_pair_bundle("a", [(LOW, LOW)])
        after = class_pair_bundle("b", [(HIGH, LOW)])
        fwd_ab = diff_bundles(before, after).entries[0]
        fwd_ba = diff_bundles(after, before).entries[0]
        assert fwd_ab.delta_sc == -fwd_ba.delta_sc
        assert fwd_ab.shifted_high and not fwd_ba.shifted_high

    def test_class_climb_flags_even_tiny_deltas(self):
        # band edges straddle the low/band centroid bound; the centroid
        # moves by one bin but the combined class climbs low -> band
        before = band_bundle("a", [(0.11, 0.22)])
        after = band_bundle("b", [(0.115, 0.225)])
        entry = diff_bundles(before, after).entries[0]
        assert entry.class_before is LOW
        assert entry.class_after is BAND
        assert 0.0 < entry.delta_sc < 0.05
        assert entry.shifted_high
        assert diff_bundles(before, after).flagged_early_layers == (1,)

    def test_threshold_rule_fires_without_class_change(self):
        before = band_bundle("a", [(0.12, 0.23)])
        after = band_bundle("b", [(0.17, 0.29)])
        entry = diff_bundles(before, after).entries[0]
        assert entry.class_before is BAND and entry.class_after is BAND
        assert entry.delta_sc > 0.05
        assert entry.shifted_high

    def test_threshold_override_unflags(self):
        before = band_bundle("a", [(0.12, 0.23)])
        after = band_bundle("b", [(0.17, 0.29)])
        report = diff_bundles(before, after, RunConfig(shift_threshold=0.10))
        assert not report.entries[0].shifted_high
        assert report.shift_threshold == 0.10

    def test_only_early_forward_shifts_are_flagged(self):
        before = class_pair_bundle("a", [(LOW, LOW)] * 4)
        after = class_pair_bundle(
            "b", [(HIGH, LOW), (LOW, HIGH), (HIGH, LOW), (LOW, LOW)]
        )
        report = diff_bundles(before, after)
        shifted = {(e.layer, e.direction) for e in report.entries if e.shifted_high}
        assert shifted == {(1, FWD), (2, BWD), (3, FWD)}
        # layer 3 is past the early half of a 4-layer stack, layer 2 moved
        # only backward, so layer 1 alone is flagged
        assert report.flagged_early_layers == (1,)

    def test_topology_mismatches_are_named(self):
        two = class_pair_bundle("a", [(LOW, LOW), (LOW, LOW)])
        three = class_pair_bundle("b", [(LOW, LOW)] * 3)
        with pytest.raises(ValueError, match="layer counts"):
            diff_bundles(two, three)
        short = class_pair_bundle("c", [(LOW, LOW), (LOW, LOW)], length=128)
        with pytest.raises(ValueError, match="lengths"):
            diff_bundles(two, short)
        rng = np.random.default_rng(7)
        wide = random_bundle("d", rng, layer_count=2, kernel_count=2, length=256)
        with pytest.raises(ValueError, match="kernel counts per direction differ"):
            diff_bundles(two, wide)

    def assert_null_row_in_either_order(self, bundle, clean):
        """diff gives the forward slot of layer 1 the null row, with the
        degenerate bundle before or after, and the backward slot a real one."""
        for before, after in ((bundle, clean), (clean, bundle)):
            report = diff_bundles(before, after)
            null, backward = report.entries
            assert (null.layer, null.direction, null.kernel_index) == (1, FWD, 0)
            assert (null.sc_before, null.sc_after, null.delta_sc) == (None, None, None)
            assert null.class_before is None and null.class_after is None
            assert null.shifted_high is False
            assert report.flagged_early_layers == ()
            assert backward.class_before is LOW and backward.class_after is LOW

    def test_kernels_analyze_marks_degenerate_get_the_null_row(self):
        # values near the float64 limit overflow the rfft, so the spectrum
        # total is NaN: analyze marks the kernel degenerate, and diff, which
        # reads analyze's entries, writes the null row instead of NaN;
        # neither leaks the overflow as a warning
        kernels = [Kernel(np.full(64, 1e307), layer=1, direction=FWD),
                   synth_for(LOW, 1, BWD, length=64)]
        bundle = KernelBundle.from_kernels("m", kernels)
        clean = class_pair_bundle("c", [(LOW, LOW)], length=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = analyze_bundle(bundle)[0].entries[0]
            assert entry.degenerate and entry.summary is None
            self.assert_null_row_in_either_order(bundle, clean)

    def test_an_infinite_spectrum_total_is_degenerate(self):
        # standard-normal values near the float64 limit: the rfft stays
        # finite but the magnitudes sum to inf, which leaves no centroid
        values = np.random.default_rng(0).standard_normal(64) * 1e307
        kernels = [Kernel(values, layer=1, direction=FWD),
                   synth_for(LOW, 1, BWD, length=64)]
        bundle = KernelBundle.from_kernels("m", kernels)
        clean = class_pair_bundle("c", [(LOW, LOW)], length=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = analyze_bundle(bundle)[0].entries[0]
            assert entry.degenerate and entry.summary is None
            self.assert_null_row_in_either_order(bundle, clean)


class TestAnalyzeRedundancy:
    def multi_bundle(self, kernel_rows, tag="m"):
        """kernel_rows: list of value arrays per kernel_index; both directions."""
        kernels = []
        for direction in (FWD, BWD):
            for idx, values in enumerate(kernel_rows):
                kernels.append(
                    Kernel(values, layer=1, direction=direction, kernel_index=idx)
                )
        return KernelBundle.from_kernels(tag, kernels)

    def test_duplicate_kernels_are_redundant(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(64)
        pairs = analyze_redundancy(self.multi_bundle([values, values.copy()]))
        assert len(pairs) == 2  # one pair per direction
        np.testing.assert_allclose(pairs.similarity, 1.0, rtol=0, atol=1e-12)
        assert pairs.redundant.all()

    def test_scaling_does_not_hide_redundancy(self):
        rng = np.random.default_rng(10)
        values = rng.standard_normal(64)
        pairs = analyze_redundancy(self.multi_bundle([values, -3.0 * values]))
        # time-domain negation leaves the magnitude spectrum untouched
        np.testing.assert_allclose(pairs.similarity, 1.0, rtol=0, atol=1e-12)

    def test_disjoint_spectra_score_zero(self):
        dc = np.ones(64)
        nyquist = np.array([1.0, -1.0] * 32)
        pairs = analyze_redundancy(self.multi_bundle([dc, nyquist]))
        np.testing.assert_allclose(pairs.similarity, 0.0, rtol=0, atol=1e-12)
        assert not pairs.redundant.any()

    def test_every_pair_is_reported_once(self):
        rng = np.random.default_rng(12)
        rows = [rng.standard_normal(32) for _ in range(3)]
        pairs = analyze_redundancy(self.multi_bundle(rows))
        keys = list(zip(pairs.layer.tolist(), pairs.direction.tolist(),
                        pairs.kernel_index_a.tolist(), pairs.kernel_index_b.tolist()))
        assert len(pairs) == 6 and keys == [
            (1, d, a, b) for d in (FWD, BWD) for a, b in ((0, 1), (0, 2), (1, 2))]
        assert ((0.0 <= pairs.similarity) & (pairs.similarity <= 1.0)).all()

    def test_columns_match_a_dot_per_pair(self):
        """Bit for bit, the similarities are what a norm per kernel and a
        dot per pair give, zero for a pair with an all-zero kernel."""
        values = np.random.default_rng(14).standard_normal((3, 2, 5, 48))
        values[1, 0, 2] = 0.0
        pairs = analyze_redundancy(KernelBundle("m", values))
        expected = []
        for slab in values:
            for spectra in np.abs(np.fft.rfft(slab, axis=-1)):
                norms = [float(np.linalg.norm(s)) for s in spectra]
                for a in range(5):
                    for b in range(a + 1, 5):
                        expected.append(
                            float(np.dot(spectra[a], spectra[b]) / (norms[a] * norms[b]))
                            if norms[a] and norms[b] else 0.0)
        assert pairs.similarity.tolist() == expected
        assert (pairs.redundant == (pairs.similarity >= 0.95)).all()

    def test_overflowing_norms_score_nan_without_a_warning(self):
        # finite spectra whose norms overflow have no similarity to report:
        # NaN (written null), never redundant
        rows = np.random.default_rng(16).standard_normal((2, 64)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = analyze_redundancy(self.multi_bundle(list(rows)))
        assert len(pairs) == 2 and np.isnan(pairs.similarity).all()
        assert not pairs.redundant.any()

    @pytest.mark.parametrize("count, length", [(2, 16), (7, 255), (33, 1024),
                                               (64, 4096)])
    def test_vecdot_has_the_bits_of_dot_and_norm(self, count, length):
        """The identity analyze_redundancy relies on to keep the report's
        bytes: a row-broadcast vecdot rounds as np.dot does for each pair,
        and sqrt(vecdot(s, s)) as np.linalg.norm does for each row."""
        values = np.random.default_rng([15, count, length]).standard_normal(
            (count, length))
        values[count // 2] = 0.0
        spectra = np.abs(np.fft.rfft(values, axis=-1))
        for a in range(count - 1):
            row = np.vecdot(spectra[a], spectra[a + 1:]).tolist()
            assert row == [float(np.dot(spectra[a], spectra[b]))
                           for b in range(a + 1, count)], f"anchor {a}"
        assert np.sqrt(np.vecdot(spectra, spectra)).tolist() == [
            float(np.linalg.norm(s)) for s in spectra]

    def test_cutoff_override(self):
        rng = np.random.default_rng(13)
        base = rng.standard_normal(64)
        near = base + 0.05 * rng.standard_normal(64)
        default_pairs = analyze_redundancy(self.multi_bundle([base, near]))
        sim = default_pairs.similarity[0]
        assert 0.95 <= sim < 1.0
        strict = analyze_redundancy(
            self.multi_bundle([base, near]),
            RunConfig(redundancy_cutoff=min(1.0, sim + 1e-6)),
        )
        assert not strict.redundant[0]

    def test_single_kernel_bundles_are_refused(self):
        bundle = class_pair_bundle("m", [(LOW, LOW)])
        with pytest.raises(ValueError, match="single kernel"):
            analyze_redundancy(bundle)
