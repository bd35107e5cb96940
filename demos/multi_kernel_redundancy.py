"""Spotting redundant kernels inside one layer slot.

Layers that carry several kernels per direction sometimes learn near
copies of the same filter. Cosine similarity between magnitude spectra
catches this regardless of sign or scale: a kernel and its negated,
rescaled twin have identical magnitude shapes. This demo builds a
four-kernel slot with one exact twin pair, one near twin, and one
genuinely different filter.

Run:
    python3 demos/multi_kernel_redundancy.py
"""
from dataclasses import replace

import numpy as np

from spectrobe import (
    DEFAULT_CONFIG,
    Direction,
    FilterClass,
    Kernel,
    KernelBundle,
    SynthSpec,
    analyze_redundancy,
    synth_kernel,
)


def flagged(pairs) -> list[tuple[str, str]]:
    """The distinct kernel pairs marked redundant, as ("k<a>", "k<b>")."""
    return sorted({
        (f"k{a}", f"k{b}") for a, b in zip(
            pairs.kernel_index_a[pairs.redundant], pairs.kernel_index_b[pairs.redundant])
    })


def main() -> None:
    rng = np.random.default_rng(11)
    low = np.asarray(synth_kernel(SynthSpec(FilterClass.LOW_PASS, 0.04)).values)
    high = np.asarray(synth_kernel(SynthSpec(FilterClass.HIGH_PASS, 0.46)).values)

    variants = [
        low,                                   # k0: the original
        -2.5 * low,                            # k1: negated and rescaled copy
        low + 0.002 * rng.standard_normal(low.size),  # k2: noisy sibling
        high,                                  # k3: different filter entirely
    ]
    kernels = [
        Kernel(values, layer=1, direction=Direction.FORWARD, kernel_index=idx)
        for idx, values in enumerate(variants)
    ]
    # the format requires both directions, so mirror the slot backward
    kernels += [
        Kernel(values, layer=1, direction=Direction.BACKWARD, kernel_index=idx)
        for idx, values in enumerate(variants)
    ]
    bundle = KernelBundle.from_kernels("demo-redundancy", kernels)

    # one column per field, one row per kernel pair
    pairs = analyze_redundancy(bundle)
    print(f"similarity cutoff: {DEFAULT_CONFIG.redundancy_cutoff}")
    print()
    print("layer  dir       pair     similarity  redundant")
    print("-" * 50)
    for layer, direction, a, b, similarity, redundant in zip(
        pairs.layer, pairs.direction, pairs.kernel_index_a,
        pairs.kernel_index_b, pairs.similarity, pairs.redundant,
    ):
        mark = "yes" if redundant else ""
        print(
            f"{layer:<6} {direction.value:<9} "
            f"k{a}/k{b}    "
            f"{similarity:<11.6f} {mark}"
        )

    print()
    print(f"flagged at cutoff {DEFAULT_CONFIG.redundancy_cutoff}: {flagged(pairs)}")
    print("The negated copy scores a flat 1.0 because magnitudes ignore sign")
    print("and scale; the light retraining noise on k2 barely dents the")
    print("similarity. Only a genuinely different filter (k3) drops it.")

    strict = replace(DEFAULT_CONFIG, redundancy_cutoff=0.9999)
    survivors = flagged(analyze_redundancy(bundle, strict))
    print()
    print(f"flagged at cutoff {strict.redundancy_cutoff}: {survivors}")
    print("A near-1 cutoff keeps only the exact twin, so the knob trades")
    print("sensitivity to retraining noise against missed copies.")


if __name__ == "__main__":
    main()
