"""Whole-model analysis: per-layer classification, forward/backward
complementarity, checkpoint diffing, and multi-kernel redundancy."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np
import numpy.typing as npt

from .classify import (
    CLASSES,
    VERDICTS,
    Categorization,
    FilterClass,
    verdict_indices,
)
from .config import DEFAULT_CONFIG, RunConfig
from .spectral import (
    DIRECTIONS,
    Direction,
    Kernel,
    SpectralSummary,
    magnitude_spectra,
    summary_fields,
)


def slot_grid(entries: Sequence[tuple[int, Direction, int, object]]) -> np.ndarray:
    """The (layers, 2, kernels per direction) object array of the items in
    ``entries``, (layer, direction, kernel_index, item) tuples that fill each
    slot of layers 1..L, both directions and kernel indices 0..K-1 exactly
    once; an item sits at ``[layer - 1, d, k]``, as in KernelBundle.values.
    A ValueError names the first slot that is out of range, listed twice or
    missing, and a claimed slot sizes nothing before the grid is complete.
    """
    if not entries:
        raise ValueError("no kernels given")
    # keyed by direction index: a member's own hash is Enum.__hash__, Python code
    seen = {}
    for layer, direction, k, item in entries:
        key = layer, DIRECTIONS.index(direction), k
        if layer < 1 or k < 0 or key in seen:
            problem = "out of range" if layer < 1 or k < 0 else "listed twice"
            raise ValueError(f"layer {layer} {direction.value} kernel {k} is {problem}")
        seen[key] = item
    layers, count = max(s[0] for s in seen), max(s[2] for s in seen) + 1
    if len(seen) < layers * 2 * count:  # the walk stops within len(seen) + 1 slots
        slots = ((layer, d, k) for layer in range(1, layers + 1)
                 for d in range(2) for k in range(count))
        layer, d, k = next(s for s in slots if s not in seen)
        raise ValueError(f"layer {layer} {DIRECTIONS[d].value} kernel {k} is missing")
    grid = np.empty((layers, 2, count), object)
    for (layer, d, k), item in seen.items():
        grid[layer - 1, d, k] = item
    return grid


@dataclass(frozen=True, eq=False)
class KernelBundle:
    """Every kernel of one model as one read-only array.

    ``values[layer - 1, d, k]`` holds kernel ``k`` of a layer in direction
    ``d`` (0 forward, 1 backward), so the shape is (layers, 2, kernels
    per direction, N). A float32 array, as read_bundle reads, stays
    float32 and every other input becomes float64; analyses widen float32
    to float64 before the FFT, so both give the same reports. A read-only
    array that owns its data is kept as given; any other input, views
    included, is copied.
    """

    model_tag: str
    values: npt.NDArray[np.float32 | np.float64]

    def __post_init__(self):
        if not isinstance(self.model_tag, str):  # as read_bundle requires
            raise ValueError(f"model_tag must be str, got {type(self.model_tag).__name__}")
        values = np.asarray(self.values)
        if np.iscomplexobj(values):  # a real cast would drop the imaginary part
            raise ValueError("bundle values must be real, got complex values")
        if values.dtype != np.float32:
            values = np.asarray(values, dtype=np.float64)
        if values.flags.writeable or not values.flags.owndata:
            values = values.copy()
            values.flags.writeable = False
        shape = values.shape
        if len(shape) != 4 or shape[1] != 2 or 0 in shape[:3] or shape[3] < 2:
            raise ValueError(
                f"bundle values must have shape (layers, 2, kernels, N >= 2), "
                f"got {shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("bundle values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_kernels(cls, model_tag: str, kernels) -> "KernelBundle":
        """Place loose kernels in a bundle by their own metadata."""
        grid = slot_grid([(k.layer, k.direction, k.kernel_index, k) for k in kernels])
        lengths = {k.length for k in grid.flat}
        if len(lengths) > 1:
            raise ValueError(f"kernel lengths differ: {sorted(lengths)}")
        values = np.empty((*grid.shape, *lengths))
        for slot, kernel in np.ndenumerate(grid):
            values[slot] = kernel.values
        values.flags.writeable = False
        return cls(model_tag, values)

    @property
    def layer_count(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[3]

    @property
    def kernel_count_per_direction(self) -> int:
        return self.values.shape[2]

    def iter_kernels(self) -> Iterator[Kernel]:
        """All kernels ordered by (layer, forward-then-backward, index)."""
        for layer, d, k in np.ndindex(self.values.shape[:3]):
            yield Kernel(self.values[layer, d, k], layer=layer + 1,
                         direction=DIRECTIONS[d], kernel_index=k)

    @property
    def layers(self) -> dict[int, dict[Direction, tuple[Kernel, ...]]]:
        """The kernels as {layer: {direction: (kernel 0, kernel 1, ...)}}."""
        kernels = self.iter_kernels()
        count = self.kernel_count_per_direction
        return {
            layer: {d: tuple(islice(kernels, count)) for d in DIRECTIONS}
            for layer in range(1, self.layer_count + 1)
        }


@dataclass(frozen=True, slots=True)
class KernelAnalysis:
    """One kernel of a LayerReport: metrics and verdicts, empty if all-zero."""

    direction: Direction
    kernel_index: int
    summary: SpectralSummary | None
    categorization: Categorization | None
    degenerate: bool = False


@dataclass(frozen=True, slots=True)
class LayerReport:
    layer: int
    entries: tuple[KernelAnalysis, ...]


class Complementarity(enum.Enum):
    STRICT = "strict"
    WEAK = "weak"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class LayerComplementarity:
    layer: int
    strength: Complementarity
    forward_class: FilterClass | None
    backward_class: FilterClass | None


@dataclass(frozen=True, slots=True)
class ComplementarityReport:
    layers: tuple[LayerComplementarity, ...]


@dataclass(frozen=True, slots=True)
class ShiftEntry:
    """One kernel's centroid movement; null (None, never shifted) if degenerate."""

    layer: int
    direction: Direction
    kernel_index: int
    sc_before: float | None
    sc_after: float | None
    delta_sc: float | None
    class_before: FilterClass | None
    class_after: FilterClass | None
    shifted_high: bool


@dataclass(frozen=True, slots=True)
class ShiftReport:
    """Per-kernel centroid movement between two checkpoints.

    ``flagged_early_layers`` lists layers in the first half of the stack
    whose forward kernel shifted toward high frequencies.
    """

    entries: tuple[ShiftEntry, ...]
    flagged_early_layers: tuple[int, ...]
    shift_threshold: float


@dataclass(frozen=True, eq=False)
class RedundancyColumns:
    """Every same-slot kernel pair as equal-length columns, one row per pair
    in (layer, direction, kernel_index_a, kernel_index_b) order."""

    layer: np.ndarray
    direction: np.ndarray  # Direction members, dtype object
    kernel_index_a: np.ndarray
    kernel_index_b: np.ndarray
    similarity: np.ndarray
    redundant: np.ndarray

    def __len__(self) -> int:
        return len(self.similarity)


def _analyzed_layers(values: np.ndarray, config: RunConfig) -> Iterator[tuple]:
    """Each LayerReport of a (layers, 2, K, N) array, with its grid and magnitudes."""
    for layer, slab in enumerate(values, start=1):
        freqs, mags = magnitude_spectra(slab)
        fields = summary_fields(freqs, mags, config)
        verdicts = verdict_indices(fields["centroid"], fields["lhfr"], config)
        columns = {name: column.tolist() for name, column in fields.items()}
        entries = []
        for d, k in np.ndindex(slab.shape[:2]):
            slot = (DIRECTIONS[d], k)
            if 0.0 < columns["total_magnitude"][d][k] < np.inf:
                summary = SpectralSummary(
                    **{name: column[d][k] for name, column in columns.items()}
                )
                entries.append(KernelAnalysis(*slot, summary, VERDICTS[verdicts[d, k]]))
            else:
                entries.append(KernelAnalysis(*slot, None, None, degenerate=True))
        yield LayerReport(layer, tuple(entries)), freqs, mags
        del freqs, mags  # held neither here nor by analyze_bundle into the next FFT


def analyze_bundle(
    bundle: KernelBundle, config: RunConfig = DEFAULT_CONFIG
) -> list[LayerReport]:
    """Spectral summary and categorization for every kernel, layer by layer.

    Kernels whose spectrum total is not positive and finite cannot be
    classified; they are marked degenerate and the rest still analyzed.
    """
    return list(map(itemgetter(0), _analyzed_layers(bundle.values, config)))


def _pair_strength(
    forward: FilterClass | None, backward: FilterClass | None
) -> Complementarity:
    if forward is None or backward is None:
        return Complementarity.NONE
    if {forward, backward} == {FilterClass.LOW_PASS, FilterClass.HIGH_PASS}:
        return Complementarity.STRICT
    if (forward is FilterClass.BAND_PASS) != (backward is FilterClass.BAND_PASS):
        return Complementarity.WEAK
    return Complementarity.NONE


def detect_complementary(reports: Sequence[LayerReport]) -> ComplementarityReport:
    """Per-layer forward/backward complementarity from layer reports.

    STRICT means the pair spans both extremes (one low-pass, one
    high-pass); WEAK means exactly one side is band-pass; everything
    else, outliers and degenerate kernels included, is NONE. Defined only
    for single-kernel layers; multi-kernel layers belong to
    analyze_redundancy.
    """
    rows = []
    for report in sorted(reports, key=lambda r: r.layer):
        forward = [e for e in report.entries if e.direction is Direction.FORWARD]
        backward = [e for e in report.entries if e.direction is Direction.BACKWARD]
        if len(forward) != 1 or len(backward) != 1:
            raise ValueError(
                f"layer {report.layer} has several kernels per direction; "
                "complementarity needs exactly one, use analyze_redundancy"
            )
        fc = forward[0].categorization.combined if forward[0].categorization else None
        bc = backward[0].categorization.combined if backward[0].categorization else None
        rows.append(
            LayerComplementarity(report.layer, _pair_strength(fc, bc), fc, bc)
        )
    return ComplementarityReport(tuple(rows))


def _check_same_topology(before: KernelBundle, after: KernelBundle) -> None:
    for what, axis in (("layer counts", 0), ("kernel lengths", 3),
                       ("kernel counts per direction", 2)):
        nb, na = before.values.shape[axis], after.values.shape[axis]
        if nb != na:
            raise ValueError(f"{what} differ: {nb} vs {na}")


def diff_bundles(
    before: KernelBundle, after: KernelBundle, config: RunConfig = DEFAULT_CONFIG
) -> ShiftReport:
    """Centroid movement of every kernel between two same-topology bundles.

    A kernel counts as shifted high when its centroid moved up by more
    than the threshold, or its combined class climbed the low < band <
    high order (which catches transitions smaller than the threshold).
    Centroids and classes are those of analyze_bundle under ``config``; a
    kernel it marks degenerate in either bundle gets ShiftEntry's null row.
    """
    _check_same_topology(before, after)
    entries = []
    for rb, ra in zip(analyze_bundle(before, config), analyze_bundle(after, config)):
        for eb, ea in zip(rb.entries, ra.entries):
            row = (None, None, None, None, None, False)  # the null row
            if not (eb.degenerate or ea.degenerate):
                sb, sa = eb.summary.centroid, ea.summary.centroid
                cb, ca = eb.categorization.combined, ea.categorization.combined
                climbed = None not in (cb, ca) and CLASSES.index(ca) > CLASSES.index(cb)
                shifted = sa - sb > config.shift_threshold or climbed
                row = (sb, sa, sa - sb, cb, ca, shifted)
            entries.append(ShiftEntry(rb.layer, eb.direction, eb.kernel_index, *row))
    early_limit = (before.layer_count + 1) // 2
    flagged = dict.fromkeys(
        e.layer for e in entries
        if e.shifted_high and e.direction is Direction.FORWARD and e.layer <= early_limit
    )
    return ShiftReport(tuple(entries), tuple(flagged), config.shift_threshold)


def analyze_redundancy(
    bundle: KernelBundle, config: RunConfig = DEFAULT_CONFIG
) -> RedundancyColumns:
    """Cosine similarity of magnitude spectra for every same-slot kernel pair.

    Covers each layer and direction with at least two kernels; pairs at or
    above the cutoff are flagged redundant, but every pair is returned
    with its similarity. Cosine over magnitudes is scale-invariant and
    insensitive to time shifts of the kernels.
    """
    layers, _, count, _ = bundle.values.shape
    if count < 2:
        raise ValueError("bundle has a single kernel per direction; nothing to compare")
    ia, ib = np.triu_indices(count, 1)  # itertools.combinations order
    similarity = []
    for slab in bundle.values:
        for spectra in magnitude_spectra(slab)[1]:
            # one row-broadcast vecdot per anchor has the bits of np.dot for
            # each pair, and sqrt(vecdot(s, s)) those of np.linalg.norm; a
            # Gram matrix would round differently and change the report
            with np.errstate(all="ignore"):  # zero norms score 0, overflowed ones NaN
                norms = np.sqrt(np.vecdot(spectra, spectra))
                dots = [np.vecdot(spectra[a], spectra[a + 1:]) for a in range(count - 1)]
                sims = np.concatenate(dots) / (norms[ia] * norms[ib])
            sims[(norms[ia] == 0.0) | (norms[ib] == 0.0)] = 0.0
            similarity.append(sims)
    similarity = np.concatenate(similarity)
    return RedundancyColumns(
        np.repeat(np.arange(1, layers + 1), 2 * len(ia)),
        np.tile(np.repeat(np.array(DIRECTIONS, dtype=object), len(ia)), layers),
        np.tile(ia, 2 * layers), np.tile(ib, 2 * layers),
        similarity, similarity >= config.redundancy_cutoff,
    )
