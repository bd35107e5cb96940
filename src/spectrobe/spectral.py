"""Kernels, one-sided magnitude spectra, and summary metrics.

A kernel is a finite sequence of real convolution weights. Its spectrum is
the magnitude of the real-input discrete Fourier transform over the grid
f(n) = n/N for n = 0..floor(N/2), so every frequency lies in [0, 0.5]
cycles per sample at unit sample rate. Magnitudes are kept raw; none of
the metrics depend on normalization.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .config import DEFAULT_CONFIG, RunConfig

FloatArray = npt.NDArray[np.float64]

# A band sum this small relative to the spectrum total is rounding dust,
# not tail energy. Sized to absorb float32 kernel payloads, whose
# quantization shows up in the spectrum around 1e-8 of the total.
ZERO_BAND_FLOOR = 1e-6


class DegenerateKernelError(ValueError):
    """The spectrum total of a kernel is zero, or too large for a float64.
    Only the one-kernel API (compute_spectrum, summarize) and ``plot`` raise it."""

    def __init__(self, message="all-zero spectrum, or one whose total "
                               "overflows, cannot be summarized"):
        super().__init__(message)


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


# the order of a bundle's second axis: 0 forward, 1 backward
DIRECTIONS = Direction.FORWARD, Direction.BACKWARD


def as_array(values, what: str, minimum_length: int = 1,
             dtype=np.float64, *, ndim: int = 1) -> np.ndarray:
    """Read-only ``ndim``-D copy of ``values`` as ``dtype``, with at least
    ``minimum_length`` values, all finite; errors name ``what`` and the
    first non-finite index. Complex values are refused, not cut to their
    real part, unless ``dtype`` is complex."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and np.dtype(dtype).kind != "c":
        raise ValueError(f"{what} must be real, got complex values")
    arr = np.array(arr, dtype=dtype)  # a copy, widened if need be
    if arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    if arr.size < minimum_length:
        raise ValueError(f"{what} must be nonempty with at least "
                         f"{minimum_length} values, got {arr.size}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        index = ", ".join(str(i) for i in np.unravel_index(bad[0], arr.shape))
        raise ValueError(f"{what} has a non-finite value at index {index}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, slots=True, eq=False)
class Kernel:
    """Time-domain convolution weights plus their place in a model.

    ``layer`` is 1-based; ``kernel_index`` distinguishes kernels when a
    layer holds several per direction.
    """

    values: FloatArray
    layer: int = 1
    direction: Direction = Direction.FORWARD
    kernel_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", as_array(self.values, "kernel", 2))
        object.__setattr__(self, "direction", Direction(self.direction))
        if self.layer < 1:
            raise ValueError(f"layer must be >= 1, got {self.layer}")
        if self.kernel_index < 0:
            raise ValueError(f"kernel_index must be >= 0, got {self.kernel_index}")

    @property
    def length(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, slots=True, eq=False)
class Spectrum:
    """One-sided magnitude spectrum on the grid f(n) = n/N."""

    frequencies: FloatArray
    magnitudes: FloatArray
    source_length: int

    def __post_init__(self):
        freqs = as_array(self.frequencies, "frequencies")
        mags = as_array(self.magnitudes, "magnitudes")
        n = self.source_length
        if n < 2:
            raise ValueError(f"source_length must be >= 2, got {n}")
        if freqs.size != n // 2 + 1:
            raise ValueError(
                f"expected {n // 2 + 1} bins for source_length {n}, got {freqs.size}"
            )
        if mags.size != freqs.size:
            raise ValueError("frequencies and magnitudes must have equal length")
        if freqs[0] != 0.0 or np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must start at 0 and increase strictly")
        if freqs[-1] > 0.5:
            raise ValueError("frequencies must not exceed 0.5")
        if np.any(mags < 0):
            raise ValueError("magnitudes must be nonnegative")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "magnitudes", mags)


@dataclass(frozen=True, slots=True)
class SpectralSummary:
    """Scalar metrics of one spectrum.

    ``lhfr`` is the low/high band magnitude ratio; ``math.inf`` when the
    high band is empty. ``tail_free`` marks spectra whose energy sits
    entirely between the two bands, where the ratio is reported as 1.0.
    """

    centroid: float
    e_low: float
    e_high: float
    lhfr: float
    dominant_frequency: float
    total_magnitude: float
    tail_free: bool = False


def magnitude_spectra(values) -> tuple[FloatArray, FloatArray]:
    """The grid f(n) = n/N and the one-sided magnitudes of every row of
    ``values``, an array of shape (..., N), computed in float64 whatever
    its dtype. Rows near the float64 limit may overflow to infinite or NaN
    magnitudes without a warning."""
    # widened first: numpy's rfft of float32 runs in single precision
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(np.fft.rfft(values, axis=-1))
    return np.arange(mags.shape[-1], dtype=np.float64) / values.shape[-1], mags


def compute_spectrum(kernel: Kernel) -> Spectrum:
    """One-sided magnitude spectrum of a kernel, unnormalized. Raises
    DegenerateKernelError for a kernel so near the float64 limit that a
    magnitude overflows."""
    frequencies, magnitudes = magnitude_spectra(kernel.values)
    if not np.all(np.isfinite(magnitudes)):
        raise DegenerateKernelError()
    return Spectrum(frequencies, magnitudes, kernel.length)


def summary_fields(
    frequencies: FloatArray, magnitudes: FloatArray, config: RunConfig
) -> dict[str, np.ndarray]:
    """Every SpectralSummary field, by name, over the leading axes of
    ``magnitudes``; ``frequencies`` is the grid of its last axis.

    The low band covers f <= low_band_fraction * 0.5 and the high band
    f >= (1 - high_band_fraction) * 0.5, both boundary-inclusive; the
    fractions are of the representable range [0, 0.5], not of the bin
    count. Each reduction runs along the last axis and the bands are
    contiguous slices, so a row of a batch gets bit-for-bit what it gets
    alone. Rows whose ``total_magnitude`` is zero or not finite (an overflow
    warns of nothing) have meaningless other fields; callers must check it.
    """
    # the grid ascends, so each band is a prefix or a suffix of the bins
    k_low = int(np.searchsorted(frequencies, config.low_band_fraction * 0.5,
                                side="right"))
    k_high = int(np.searchsorted(frequencies, (1.0 - config.high_band_fraction) * 0.5,
                                 side="left"))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total = magnitudes.sum(-1)
        e_low = magnitudes[..., :k_low].sum(-1)
        e_high = magnitudes[..., k_high:].sum(-1)
        floor = ZERO_BAND_FLOOR * total
        tail_free = (e_low <= floor) & (e_high <= floor)
        centroid = (frequencies * magnitudes).sum(-1) / total
        # e_low / e_high, inf for an empty high band, 1.0 where tail_free
        ratio = np.where(tail_free, 1.0, np.divide(e_low, e_high))
    return {
        "centroid": centroid,
        "e_low": e_low,
        "e_high": e_high,
        "lhfr": ratio,
        "dominant_frequency": frequencies[magnitudes.argmax(-1)],
        "total_magnitude": total,
        "tail_free": tail_free,
    }


def summarize(
    spectrum: Spectrum, config: RunConfig = DEFAULT_CONFIG
) -> SpectralSummary:
    """All scalar metrics of a spectrum in one pass, under ``config``: the
    one-row case of summary_fields.

    The centroid is the magnitude-weighted mean frequency, DC included;
    the dominant frequency is the strongest bin's, the lowest on ties.
    Band sums below ZERO_BAND_FLOOR of the total are treated as empty.
    When both tails are empty but the spectrum is not, the ratio is
    reported as 1.0 with ``tail_free`` set, so downstream classification
    reads the kernel as mid-band. Raises DegenerateKernelError unless the
    spectrum total is positive and finite.
    """
    fields = summary_fields(spectrum.frequencies, spectrum.magnitudes, config)
    if not 0.0 < fields["total_magnitude"] < np.inf:
        raise DegenerateKernelError()
    return SpectralSummary(**{name: value.item() for name, value in fields.items()})
