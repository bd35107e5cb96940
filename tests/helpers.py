"""Shared builders for the test suite."""

import numpy as np

from spectrobe import Direction, FilterClass, KernelBundle, SynthSpec, synth_kernel

# Cutoffs that land each class comfortably inside its regime at any N >= 16.
CLASS_CUTOFFS = {
    FilterClass.LOW_PASS: (0.03, None),
    FilterClass.HIGH_PASS: (0.46, None),
    FilterClass.BAND_PASS: (0.2, 0.3),
}


def synth_for(target, layer, direction, length=256, kernel_index=0):
    lo, hi = CLASS_CUTOFFS[target]
    spec = SynthSpec(target, lo, cutoff_high=hi, length=length)
    return synth_kernel(
        spec,
        layer=layer,
        direction=direction,
        kernel_index=kernel_index,
    )


def class_pair_bundle(tag, layer_classes, length=256):
    """Bundle with one kernel per direction; layer_classes[i] = (fwd, bwd) class."""
    kernels = []
    for layer, (fwd, bwd) in enumerate(layer_classes, start=1):
        kernels.append(synth_for(fwd, layer, Direction.FORWARD, length))
        kernels.append(synth_for(bwd, layer, Direction.BACKWARD, length))
    return KernelBundle.from_kernels(tag, kernels)


def random_bundle(tag, rng, layer_count=3, kernel_count=1, length=64):
    """Bundle of seeded Gaussian kernels, kernel_count per direction per layer."""
    from spectrobe import Kernel

    kernels = []
    for layer in range(1, layer_count + 1):
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            for idx in range(kernel_count):
                kernels.append(
                    Kernel(
                        rng.standard_normal(length),
                        layer=layer,
                        direction=direction,
                        kernel_index=idx,
                    )
                )
    return KernelBundle.from_kernels(tag, kernels)


def rigid_transform(points, rotation, shift):
    return points @ rotation.T + shift


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))
