"""Whole-model analysis: per-layer classification, forward/backward
complementarity, checkpoint diffing, and multi-kernel redundancy."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classify import (
    CLASSES,
    VERDICTS,
    Categorization,
    FilterClass,
    verdict_indices,
)
from .config import DEFAULT_CONFIG, RunConfig
from .spectral import (
    DegenerateKernelError,
    Direction,
    FloatArray,
    Kernel,
    SpectralSummary,
    magnitude_spectra,
    summary_fields,
)

# the order of a bundle's second axis
_DIRECTIONS = tuple(Direction)
# combined class of every verdict as its CLASSES index, -1 for outliers
_RANKS = np.array(
    [-1 if v.combined is None else CLASSES.index(v.combined) for v in VERDICTS]
)


def bundle_shape(slots: Iterable[tuple[int, Direction, int, int]]) -> tuple[int, ...]:
    """The (layers, 2, kernels per direction, N) array shape of a bundle
    whose kernels sit at the given (layer, direction, kernel_index,
    length) slots.

    Layers must run contiguously from 1 and each must carry both
    directions with the same number of kernels, indexed from 0 without
    gaps; all kernels must share one length of at least 2.
    """
    indices: dict[int, dict[Direction, list[int]]] = {}
    length = None
    for layer, direction, kernel_index, n in slots:
        indices.setdefault(layer, {}).setdefault(direction, []).append(kernel_index)
        if length is None:
            length = n
        elif n != length:
            raise ValueError(f"kernel lengths differ: {n} vs {length}")
    if not indices:
        raise ValueError("bundle has no layers")
    if length < 2:
        raise ValueError(f"kernels need at least 2 samples, got {length}")
    layers = sorted(indices)
    if layers != list(range(1, len(layers) + 1)):
        raise ValueError(f"layer indices must be contiguous from 1, got {layers}")
    per_direction = len(indices[1].get(Direction.FORWARD, ()))
    for layer in layers:
        for direction in _DIRECTIONS:
            got = sorted(indices[layer].get(direction, ()))
            if not got:
                raise ValueError(f"layer {layer} is missing {direction.value} kernels")
            if got != list(range(len(got))):
                raise ValueError(
                    f"layer {layer} {direction.value}: kernel_index values "
                    f"must be 0..{len(got) - 1} without gaps, got {got}"
                )
            if len(got) != per_direction:
                raise ValueError(
                    f"layer {layer} {direction.value} has {len(got)} kernels, "
                    f"expected {per_direction}"
                )
    return len(layers), 2, per_direction, length


@dataclass(frozen=True, eq=False)
class KernelBundle:
    """Every kernel of one model as one read-only float64 array.

    ``values[layer - 1, d, k]`` holds kernel ``k`` of a layer in direction
    ``d`` (0 forward, 1 backward), so the shape is (layers, 2, kernels
    per direction, N). A read-only float64 array that owns its data is
    kept as given; any other input, views included, is copied.
    """

    model_tag: str
    values: FloatArray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
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
        kernels = list(kernels)
        values = np.empty(bundle_shape(
            (k.layer, k.direction, k.kernel_index, k.length) for k in kernels
        ))
        for k in kernels:
            d = _DIRECTIONS.index(k.direction)
            values[k.layer - 1, d, k.kernel_index] = k.values
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
                         direction=_DIRECTIONS[d], kernel_index=k)

    @property
    def layers(self) -> dict[int, dict[Direction, tuple[Kernel, ...]]]:
        """The kernels as {layer: {direction: (kernel 0, kernel 1, ...)}}."""
        kernels = self.iter_kernels()
        count = self.kernel_count_per_direction
        return {
            layer: {d: tuple(islice(kernels, count)) for d in _DIRECTIONS}
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
    layer: int
    direction: Direction
    kernel_index: int
    sc_before: float
    sc_after: float
    delta_sc: float
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


@dataclass(frozen=True, slots=True)
class RedundancyPair:
    layer: int
    direction: Direction
    kernel_index_a: int
    kernel_index_b: int
    similarity: float
    redundant: bool


def _classify(
    values: FloatArray, cfg: RunConfig
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Summary fields (see summary_fields) and VERDICTS indices, under
    ``cfg``, of every kernel in ``values``, an array of shape (..., N).
    All-zero kernels have a zero ``total_magnitude`` and no verdict."""
    fields = summary_fields(*magnitude_spectra(values), cfg)
    return fields, verdict_indices(fields["centroid"], fields["lhfr"], cfg)


def analyze_bundle(
    bundle: KernelBundle, config: RunConfig = DEFAULT_CONFIG
) -> list[LayerReport]:
    """Spectral summary and categorization for every kernel, layer by layer.

    All-zero kernels cannot be classified; their entries are marked
    degenerate and the rest of the bundle is still analyzed.
    """
    reports = []
    for layer, slab in enumerate(bundle.values, start=1):
        fields, verdicts = _classify(slab, config)
        columns = {name: column.tolist() for name, column in fields.items()}
        entries = []
        for d, k in np.ndindex(slab.shape[:2]):
            slot = (_DIRECTIONS[d], k)
            if columns["total_magnitude"][d][k] > 0.0:
                summary = SpectralSummary(
                    **{name: column[d][k] for name, column in columns.items()}
                )
                entries.append(KernelAnalysis(*slot, summary, VERDICTS[verdicts[d, k]]))
            else:
                entries.append(KernelAnalysis(*slot, None, None, degenerate=True))
        reports.append(LayerReport(layer, tuple(entries)))
    return reports


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
    Kernels must carry energy in both checkpoints.
    """
    _check_same_topology(before, after)
    entries = []
    flagged = []
    early_limit = (before.layer_count + 1) // 2
    for layer in range(before.layer_count):
        (fb, vb), (fa, va) = (_classify(b.values[layer], config)
                              for b in (before, after))
        if (fb["total_magnitude"] <= 0.0).any() or (fa["total_magnitude"] <= 0.0).any():
            raise DegenerateKernelError("all-zero spectrum cannot be summarized")
        delta = fa["centroid"] - fb["centroid"]
        climbed = (_RANKS[vb] >= 0) & (_RANKS[va] > _RANKS[vb])
        shifted = (delta > config.shift_threshold) | climbed
        for d, k in np.ndindex(delta.shape):
            entries.append(
                ShiftEntry(
                    layer=layer + 1,
                    direction=_DIRECTIONS[d],
                    kernel_index=k,
                    sc_before=fb["centroid"][d, k].item(),
                    sc_after=fa["centroid"][d, k].item(),
                    delta_sc=delta[d, k].item(),
                    class_before=VERDICTS[vb[d, k]].combined,
                    class_after=VERDICTS[va[d, k]].combined,
                    shifted_high=bool(shifted[d, k]),
                )
            )
        if layer < early_limit and shifted[0].any():  # row 0 is forward
            flagged.append(layer + 1)
    return ShiftReport(tuple(entries), tuple(flagged), config.shift_threshold)


def analyze_redundancy(
    bundle: KernelBundle, config: RunConfig = DEFAULT_CONFIG
) -> list[RedundancyPair]:
    """Cosine similarity of magnitude spectra for every same-slot kernel pair.

    Covers each layer and direction with at least two kernels; pairs at or
    above the cutoff are flagged redundant, but every pair is returned
    with its similarity. Cosine over magnitudes is scale-invariant and
    insensitive to time shifts of the kernels.
    """
    if bundle.kernel_count_per_direction < 2:
        raise ValueError(
            "bundle has a single kernel per direction; nothing to compare"
        )
    pairs = []
    for layer, slab in enumerate(bundle.values, start=1):
        for direction, spectra in zip(_DIRECTIONS, magnitude_spectra(slab)[1]):
            # a norm per kernel, a dot per pair: a Gram matrix would round
            # differently and change the report's bytes
            norms = [float(np.linalg.norm(s)) for s in spectra]
            for ia, ib in combinations(range(len(spectra)), 2):
                na, nb = norms[ia], norms[ib]
                similarity = (
                    float(np.dot(spectra[ia], spectra[ib]) / (na * nb))
                    if na != 0.0 and nb != 0.0 else 0.0
                )
                pairs.append(
                    RedundancyPair(
                        layer=layer,
                        direction=direction,
                        kernel_index_a=ia,
                        kernel_index_b=ib,
                        similarity=similarity,
                        redundant=similarity >= config.redundancy_cutoff,
                    )
                )
    return pairs
