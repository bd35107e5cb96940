"""Kernel construction: diagonal state-space materialization and ideal
filter synthesis."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .classify import FilterClass
from .spectral import Kernel, as_array, as_int

ComplexArray = npt.NDArray[np.complex128]


class StabilityError(ValueError):
    """A state-space pole sits on or right of the imaginary axis."""


@dataclass(frozen=True, slots=True, eq=False)
class S4DParams:
    """Diagonal state-space parameters: one pole and one coefficient per
    mode, plus the discretization step (time per sample).

    Poles must have strictly negative real part; the materialized kernel
    is then a damped sum of complex exponentials. Callers wanting
    conjugate-pair semantics double the coefficient instead of listing
    the conjugate mode. Parameters are refused when step * pole or the
    kernel bound sum |c * (exp(step * pole) - 1) / pole| overflows float64.
    """

    poles: ComplexArray
    coefficients: ComplexArray
    step: float

    def __post_init__(self):
        poles = as_array(self.poles, "poles", 0, np.complex128)
        coeffs = as_array(self.coefficients, "coefficients", 0, np.complex128)
        if poles.size != coeffs.size:
            raise ValueError(f"got {poles.size} poles but {coeffs.size} coefficients")
        unstable = np.flatnonzero(poles.real >= 0)
        if unstable.size:
            raise StabilityError(
                f"pole {unstable[0]} has nonnegative real part "
                f"({poles[unstable[0]]:.6g})"
            )
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        with np.errstate(all="ignore"):  # an overflow is reported below
            sa = self.step * poles
            bound = np.abs(coeffs * np.expm1(sa) / poles).sum()  # of |kernel|
        if not (np.isfinite(sa).all() and np.isfinite(bound)):
            raise ValueError("kernel overflows float64: step * pole or "
                             "sum |c * (exp(step * pole) - 1) / pole| is not finite")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def state_size(self) -> int:
        return int(self.poles.size)


@dataclass(frozen=True, slots=True)
class SynthSpec:
    """Recipe for an ideal test filter.

    ``cutoff_low`` is the single cutoff for low- and high-pass designs and
    the lower band edge for band-pass; ``cutoff_high`` is the upper band
    edge and only meaningful for band-pass. Cutoffs are normalized
    frequencies in (0, 0.5).
    """

    target_class: FilterClass
    cutoff_low: float
    cutoff_high: float | None = None
    length: int = 256

    def __post_init__(self):
        if as_int(self.length, "length") < 16:
            raise ValueError(f"length must be >= 16, got {self.length}")
        if not 0.0 < self.cutoff_low < 0.5:
            raise ValueError(f"cutoff_low {self.cutoff_low} outside (0, 0.5)")
        if self.target_class is FilterClass.BAND_PASS:
            if self.cutoff_high is None:
                raise ValueError("band-pass synthesis needs cutoff_high")
            if not 0.0 < self.cutoff_high < 0.5:
                raise ValueError(f"cutoff_high {self.cutoff_high} outside (0, 0.5)")
            if not self.cutoff_low < self.cutoff_high:
                raise ValueError(
                    f"band edges must satisfy cutoff_low < cutoff_high, got "
                    f"{self.cutoff_low} >= {self.cutoff_high}"
                )
        elif self.cutoff_high is not None:
            raise ValueError("cutoff_high only applies to band-pass synthesis")


def materialize_s4d(params: S4DParams, length: int) -> Kernel:
    """Kernel of a diagonal state-space system under zero-order hold, at
    the default slot; Kernel(values, layer=..., ...) places it.

    With abar = exp(step * a), bbar = (abar - 1) / a and B = ceil(sqrt(length)),
    K[l] = Re(sum_n c_n * bbar_n * abar_n**l), l = 0..length-1, is evaluated as
    the real part of one product X @ Y of X = c*bbar*exp(step*a*B*r) (r < B) by
    Y = exp(step*a*b) (b < B), l = B*r + b, as Re X @ Re Y - Im X @ Im Y.
    """
    if as_int(length, "length") < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    # finite params can still overflow at this length; Kernel refuses the
    # non-finite samples that leaves
    with np.errstate(all="ignore"):
        sa = params.step * params.poles
        b = np.arange(int(np.ceil(np.sqrt(length))))  # r runs over it too
        weights = params.coefficients * np.expm1(sa) / params.poles
        outer = weights * np.exp(sa * b.size * b[:, None])
        inner = np.exp(sa[:, None] * b)
        # half the multiplies of the complex product, whose imaginary part is unused
        values = (outer.real @ inner.real - outer.imag @ inner.imag).reshape(-1)[:length]
    return Kernel(values)


def _low_pass_taps(cutoff: float, length: int) -> np.ndarray:
    # odd tap count keeps the delay integral so spectral inversion stays exact
    taps = length if length % 2 == 1 else length - 1
    center = (taps - 1) // 2
    m = np.arange(taps) - center
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * m)
    h = h * np.hamming(taps)
    h = h / h.sum()
    out = np.zeros(length)
    out[:taps] = h
    return out


def _high_pass_taps(cutoff: float, length: int) -> np.ndarray:
    taps = length if length % 2 == 1 else length - 1
    center = (taps - 1) // 2
    out = -_low_pass_taps(cutoff, length)
    out[center] += 1.0
    return out


def _band_pass_taps(low: float, high: float, length: int) -> np.ndarray:
    # sampled ideal response: unit gain on every bin strictly inside the
    # band (bins sitting exactly on an edge stay out, so the kernel owns
    # no tail energy), linear phase about an integer center
    bins = length // 2 + 1
    freqs = np.arange(bins) / length
    gain = ((freqs > low) & (freqs < high)).astype(np.float64)
    if not gain.any():
        raise ValueError(
            f"no spectrum bins inside ({low}, {high}) at length {length}; "
            "widen the band or lengthen the kernel"
        )
    center = length // 2
    phase = np.exp(-2j * np.pi * np.arange(bins) * center / length)
    return np.fft.irfft(gain * phase, n=length)


def synth_kernel(spec: SynthSpec) -> Kernel:
    """Ideal filter kernel, at the default slot, for exercising the
    classification pipeline.

    Low-pass is a Hamming-windowed sinc normalized to unit DC gain.
    High-pass is its spectral inversion (a centered unit impulse minus
    the low-pass). Band-pass samples the ideal band response on the
    kernel's own frequency grid, which pins the passband to the bins the
    analysis reads.
    """
    if spec.target_class is FilterClass.LOW_PASS:
        values = _low_pass_taps(spec.cutoff_low, spec.length)
    elif spec.target_class is FilterClass.HIGH_PASS:
        values = _high_pass_taps(spec.cutoff_low, spec.length)
    else:
        values = _band_pass_taps(spec.cutoff_low, spec.cutoff_high, spec.length)
    return Kernel(values)

