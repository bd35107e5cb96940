import math

import numpy as np
import pytest

from spectrobe import (
    Categorization,
    Confidence,
    FilterClass,
    Kernel,
    RunConfig,
    categorize,
    classify_by_centroid,
    classify_by_lhfr,
    compute_spectrum,
    summarize,
)

LOW = FilterClass.LOW_PASS
BAND = FilterClass.BAND_PASS
HIGH = FilterClass.HIGH_PASS


def summary_with(centroid, ratio):
    from spectrobe import SpectralSummary

    return SpectralSummary(
        centroid=centroid,
        e_low=1.0,
        e_high=1.0,
        lhfr=ratio,
        dominant_frequency=centroid,
        total_magnitude=1.0,
    )


class TestClassifyByCentroid:
    @pytest.mark.parametrize(
        "sc,expected",
        [
            (0.0, LOW),
            (0.10, LOW),
            (1 / 6 - 1e-9, LOW),
            (1 / 6, BAND),
            (0.25, BAND),
            (1 / 3, BAND),
            (1 / 3 + 1e-9, HIGH),
            (0.40, HIGH),
            (0.5, HIGH),
        ],
    )
    def test_placement(self, sc, expected):
        assert classify_by_centroid(sc) is expected

    def test_bounds_are_strict(self):
        assert classify_by_centroid(1 / 6) is BAND
        assert classify_by_centroid(1 / 3) is BAND

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify_by_centroid(-0.01)
        with pytest.raises(ValueError):
            classify_by_centroid(0.51)

    def test_custom_bounds(self):
        assert classify_by_centroid(0.25, RunConfig(sc_high_bound=0.2)) is HIGH
        assert classify_by_centroid(
            0.25, RunConfig(sc_low_bound=0.3, sc_high_bound=0.4)
        ) is LOW


class TestClassifyByLhfr:
    @pytest.mark.parametrize(
        "ratio,expected",
        [
            (50.0, LOW),
            (math.inf, LOW),
            (10.0 + 1e-9, LOW),
            (10.0, BAND),
            (5.0, BAND),
            (1.0, BAND),
            (1.0 - 1e-9, HIGH),
            (6 / 21, HIGH),
            (0.0, HIGH),
        ],
    )
    def test_placement(self, ratio, expected):
        assert classify_by_lhfr(ratio) is expected

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            classify_by_lhfr(-0.5)
        with pytest.raises(ValueError):
            classify_by_lhfr(math.nan)

    def test_custom_bounds(self):
        assert classify_by_lhfr(5.0, RunConfig(lhfr_low_pass_min=4.0)) is LOW
        assert classify_by_lhfr(0.9, RunConfig(lhfr_high_pass_max=0.5)) is BAND


class TestCategorize:
    # Every (centroid verdict, ratio verdict) combination, via values that
    # land squarely in each region.
    @pytest.mark.parametrize(
        "sc,ratio,combined,confidence",
        [
            (0.05, 40.0, LOW, Confidence.AGREE),
            (0.05, 5.0, LOW, Confidence.WEAK),
            (0.05, 0.5, None, Confidence.OUTLIER),
            (0.25, 40.0, LOW, Confidence.WEAK),
            (0.25, 5.0, BAND, Confidence.AGREE),
            (0.25, 0.5, HIGH, Confidence.WEAK),
            (0.45, 40.0, None, Confidence.OUTLIER),
            (0.45, 5.0, HIGH, Confidence.WEAK),
            (0.45, 0.5, HIGH, Confidence.AGREE),
        ],
    )
    def test_combination_table(self, sc, ratio, combined, confidence):
        got = categorize(summary_with(sc, ratio))
        assert got.combined is combined
        assert got.confidence is confidence

    def test_reports_both_verdicts(self):
        got = categorize(summary_with(0.05, 0.5))
        assert got == Categorization(LOW, HIGH, None, Confidence.OUTLIER)

    def test_centroid_class_never_decreases_with_centroid(self):
        order = {LOW: 0, BAND: 1, HIGH: 2}
        last = -1
        for sc in np.linspace(0.0, 0.5, 101):
            rank = order[categorize(summary_with(float(sc), 5.0)).by_centroid]
            assert rank >= last
            last = rank

    def test_scale_invariance_end_to_end(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            values = rng.standard_normal(80)
            base = categorize(summarize(compute_spectrum(Kernel(values))))
            scaled = categorize(summarize(compute_spectrum(Kernel(250.0 * values))))
            assert base == scaled

    def test_threshold_overrides_reach_both_rules(self):
        summary = summary_with(0.25, 5.0)
        moved = categorize(
            summary, RunConfig(sc_high_bound=0.2, lhfr_low_pass_min=4.0)
        )
        assert moved.by_centroid is HIGH
        assert moved.by_lhfr is LOW
        assert moved.confidence is Confidence.OUTLIER
