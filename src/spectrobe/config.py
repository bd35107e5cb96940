"""Run-wide thresholds collected in one overridable bag.

Every number that shapes a kernel verdict lives here exactly once, as a
``RunConfig`` field default: the centroid class bounds, the band-ratio
class bounds, the band-edge fractions, the checkpoint-shift threshold
and the redundancy cutoff. Every function that summarizes, classifies
or compares kernels takes a ``RunConfig``; none takes a threshold of
its own. A JSON file with any subset of the field names overrides the
defaults for a run; ``io.load_config`` reads one, so this module imports
no other. The probe's separability tolerance is fixed (see ``probe``).
"""
from __future__ import annotations

import dataclasses
import math
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass

_SHORT = reprlib.Repr()
_SHORT.maxstring = _SHORT.maxother = 60
_SHORT.maxlist = _SHORT.maxdict = 4
# repr cut to a few dozen characters: how every error quotes an outside value
quoted = _SHORT.repr


@contextmanager
def located(where, error=ValueError):
    """Re-raise a ValueError from the block as ``error(f"{where}: {exc}")``. Keep
    out calls that already name their own place, or it is named twice."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None


def finite_float(value, what: str) -> float:
    """A JSON number as a finite float; ValueError naming ``what`` for
    anything else, an integer too large for a float included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {quoted(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number")
    return number


@dataclass(frozen=True, slots=True)
class RunConfig:
    sc_low_bound: float = 1.0 / 6.0
    sc_high_bound: float = 1.0 / 3.0
    lhfr_low_pass_min: float = 10.0
    lhfr_high_pass_max: float = 1.0
    low_band_fraction: float = 0.10
    high_band_fraction: float = 0.40
    shift_threshold: float = 0.05
    redundancy_cutoff: float = 0.95

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        if not 0.0 < self.sc_low_bound < 0.5:
            raise ValueError(f"sc_low_bound {self.sc_low_bound} outside (0, 0.5)")
        if not 0.0 < self.sc_high_bound < 0.5:
            raise ValueError(f"sc_high_bound {self.sc_high_bound} outside (0, 0.5)")
        if not self.sc_low_bound < self.sc_high_bound:
            raise ValueError("sc_low_bound must be below sc_high_bound")
        if not self.lhfr_high_pass_max > 0:
            raise ValueError("lhfr_high_pass_max must be positive")
        if not self.lhfr_low_pass_min > self.lhfr_high_pass_max:
            raise ValueError("lhfr_low_pass_min must exceed lhfr_high_pass_max")
        for name in ("low_band_fraction", "high_band_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} {value} outside (0, 1)")
        if self.low_band_fraction + self.high_band_fraction > 1.0:
            raise ValueError("band fractions overlap; they must sum to at most 1")
        if self.shift_threshold < 0:
            raise ValueError("shift_threshold must be nonnegative")
        if not 0.0 < self.redundancy_cutoff <= 1.0:
            raise ValueError(
                f"redundancy_cutoff {self.redundancy_cutoff} outside (0, 1]"
            )


DEFAULT_CONFIG = RunConfig()

_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}


def config_from_mapping(data) -> RunConfig:
    """RunConfig from a dict holding any subset of the field names."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown config keys: {quoted(unknown)}")
    overrides = {
        key: finite_float(value, f"config key {key!r}") for key, value in data.items()
    }
    return dataclasses.replace(DEFAULT_CONFIG, **overrides)

