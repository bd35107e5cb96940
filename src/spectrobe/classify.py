"""Filter-class rules over spectral summaries and their combination.

Two independent rules vote on every kernel: one reads the spectral
centroid, one reads the low/high band ratio. They usually agree; when
they do not, the combination rules below decide how much to trust the
verdict.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralSummary

SC_LOW_BOUND = 1.0 / 6.0
SC_HIGH_BOUND = 1.0 / 3.0
LHFR_LOW_PASS_MIN = 10.0
LHFR_HIGH_PASS_MAX = 1.0


class FilterClass(enum.Enum):
    LOW_PASS = "low_pass"
    BAND_PASS = "band_pass"
    HIGH_PASS = "high_pass"


# class order from low to high frequencies; rule results index into it
CLASSES = (FilterClass.LOW_PASS, FilterClass.BAND_PASS, FilterClass.HIGH_PASS)


class Confidence(enum.Enum):
    AGREE = "agree"
    WEAK = "weak"
    OUTLIER = "outlier"


@dataclass(frozen=True, slots=True)
class Categorization:
    """Both rule verdicts plus the combined one.

    ``combined`` is None exactly when the rules conflict head-on (one says
    low-pass, the other high-pass); ``confidence`` is then OUTLIER.
    """

    by_centroid: FilterClass
    by_lhfr: FilterClass
    combined: FilterClass | None
    confidence: Confidence


def _class_index(values, low_side, high_side):
    """Index into CLASSES per value: 0 below low_side, 2 above high_side,
    1 otherwise, so a value on either side lands in the middle."""
    return np.where(values < low_side, 0, np.where(values > high_side, 2, 1))


def classify_by_centroid(
    sc: float,
    *,
    low_bound: float = SC_LOW_BOUND,
    high_bound: float = SC_HIGH_BOUND,
) -> FilterClass:
    """Class by centroid position: below low_bound, above high_bound, or between.

    Comparisons are strict, so a centroid sitting exactly on a bound falls
    into the band-pass middle.
    """
    if not 0.0 <= sc <= 0.5:
        raise ValueError(f"centroid {sc!r} outside [0, 0.5]")
    return CLASSES[_class_index(sc, low_bound, high_bound)]


def classify_by_lhfr(
    ratio: float,
    *,
    low_pass_min: float = LHFR_LOW_PASS_MIN,
    high_pass_max: float = LHFR_HIGH_PASS_MAX,
) -> FilterClass:
    """Class by band ratio: low-pass above low_pass_min, high-pass below
    high_pass_max, band-pass between. Boundary values land band-pass.
    An infinite ratio (empty high band) is low-pass.
    """
    if math.isnan(ratio) or ratio < 0:
        raise ValueError(f"band ratio must be nonnegative, got {ratio!r}")
    # negated, a large ratio sits on the low-pass side
    return CLASSES[_class_index(-ratio, -low_pass_min, -high_pass_max)]


def _combine(by_sc: FilterClass, by_ratio: FilterClass) -> Categorization:
    if by_sc is by_ratio:
        return Categorization(by_sc, by_ratio, by_sc, Confidence.AGREE)
    if FilterClass.BAND_PASS in (by_sc, by_ratio):
        other = by_ratio if by_sc is FilterClass.BAND_PASS else by_sc
        return Categorization(by_sc, by_ratio, other, Confidence.WEAK)
    return Categorization(by_sc, by_ratio, None, Confidence.OUTLIER)


# every verdict, at index 3 * centroid-rule index + ratio-rule index
VERDICTS = tuple(_combine(a, b) for a in CLASSES for b in CLASSES)


def verdict_indices(centroid, ratio, sc_bounds, lhfr_bounds) -> np.ndarray:
    """Index into VERDICTS of every (centroid, band ratio) pair, given the
    (low, high) centroid bounds and the (low-pass minimum, high-pass
    maximum) ratio bounds: the array form of categorize, for values
    already known to be in range."""
    (sc_low, sc_high), (low_pass_min, high_pass_max) = sc_bounds, lhfr_bounds
    return 3 * _class_index(centroid, sc_low, sc_high) + _class_index(
        -ratio, -low_pass_min, -high_pass_max
    )


def categorize(
    summary: SpectralSummary,
    *,
    sc_low_bound: float = SC_LOW_BOUND,
    sc_high_bound: float = SC_HIGH_BOUND,
    lhfr_low_pass_min: float = LHFR_LOW_PASS_MIN,
    lhfr_high_pass_max: float = LHFR_HIGH_PASS_MAX,
) -> Categorization:
    """Run both rules and combine them.

    Agreement keeps the shared class. When exactly one rule says
    band-pass, the other rule's committed tail preference wins with WEAK
    confidence. A low-vs-high conflict is irreconcilable: no combined
    class, OUTLIER confidence.
    """
    by_sc = classify_by_centroid(
        summary.centroid, low_bound=sc_low_bound, high_bound=sc_high_bound
    )
    by_ratio = classify_by_lhfr(
        summary.lhfr, low_pass_min=lhfr_low_pass_min, high_pass_max=lhfr_high_pass_max
    )
    return _combine(by_sc, by_ratio)
