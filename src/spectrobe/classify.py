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

from .config import DEFAULT_CONFIG, RunConfig
from .spectral import SpectralSummary


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


def _by_centroid(sc, config: RunConfig):
    """CLASSES index of every centroid, the array form of classify_by_centroid."""
    return np.where(sc < config.sc_low_bound, 0,
                    np.where(sc > config.sc_high_bound, 2, 1))


def _by_lhfr(ratio, config: RunConfig):
    """CLASSES index of every band ratio, the array form of classify_by_lhfr."""
    return np.where(ratio > config.lhfr_low_pass_min, 0,
                    np.where(ratio < config.lhfr_high_pass_max, 2, 1))


def classify_by_centroid(sc: float, config: RunConfig = DEFAULT_CONFIG) -> FilterClass:
    """Class by centroid position under ``config``: low-pass below
    sc_low_bound, high-pass above sc_high_bound. Comparisons are strict,
    so a centroid sitting exactly on a bound is band-pass.
    """
    if not 0.0 <= sc <= 0.5:
        raise ValueError(f"centroid {sc!r} outside [0, 0.5]")
    return CLASSES[_by_centroid(sc, config)]


def classify_by_lhfr(ratio: float, config: RunConfig = DEFAULT_CONFIG) -> FilterClass:
    """Class by band ratio under ``config``: low-pass above
    lhfr_low_pass_min, high-pass below lhfr_high_pass_max; boundary values
    are band-pass. An infinite ratio (empty high band) is low-pass.
    """
    if math.isnan(ratio) or ratio < 0:
        raise ValueError(f"band ratio must be nonnegative, got {ratio!r}")
    return CLASSES[_by_lhfr(ratio, config)]


def _combine(by_sc: FilterClass, by_ratio: FilterClass) -> Categorization:
    if by_sc is by_ratio:
        return Categorization(by_sc, by_ratio, by_sc, Confidence.AGREE)
    if FilterClass.BAND_PASS in (by_sc, by_ratio):
        other = by_ratio if by_sc is FilterClass.BAND_PASS else by_sc
        return Categorization(by_sc, by_ratio, other, Confidence.WEAK)
    return Categorization(by_sc, by_ratio, None, Confidence.OUTLIER)


# every verdict, at index 3 * centroid-rule index + ratio-rule index
VERDICTS = tuple(_combine(a, b) for a in CLASSES for b in CLASSES)


def verdict_indices(centroid, ratio, config: RunConfig) -> np.ndarray:
    """Index into VERDICTS of every (centroid, band ratio) pair under
    ``config``: the array form of categorize, for values already known
    to be in range."""
    return 3 * _by_centroid(centroid, config) + _by_lhfr(ratio, config)


def categorize(
    summary: SpectralSummary, config: RunConfig = DEFAULT_CONFIG
) -> Categorization:
    """Run both rules under ``config`` and combine them.

    Agreement keeps the shared class. When exactly one rule says
    band-pass, the other rule's committed tail preference wins with WEAK
    confidence. A low-vs-high conflict is irreconcilable: no combined
    class, OUTLIER confidence.
    """
    return _combine(classify_by_centroid(summary.centroid, config),
                    classify_by_lhfr(summary.lhfr, config))
