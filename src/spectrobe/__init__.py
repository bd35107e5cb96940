"""Frequency-domain analysis of long convolution kernels and
classifier-free probing of hidden representations.

The spectral side turns a model's directional state-space kernels into
one-sided magnitude spectra, classifies each as low-, band-, or
high-pass under two independent rules, and compares whole checkpoints:
complementary forward/backward pairs, centroid drift after fine-tuning,
and redundancy between kernels sharing a layer. The probing side
clusters labeled representation pairs under a convex-hull separability
constraint and scores the clustering as a nearest-cluster classifier.
"""
from .analysis import (
    Complementarity,
    ComplementarityReport,
    KernelAnalysis,
    KernelBundle,
    LayerComplementarity,
    LayerReport,
    RedundancyPair,
    ShiftEntry,
    ShiftReport,
    analyze_bundle,
    analyze_redundancy,
    detect_complementary,
    diff_bundles,
)
from .classify import (
    Categorization,
    Confidence,
    FilterClass,
    categorize,
    classify_by_centroid,
    classify_by_lhfr,
)
from .config import DEFAULT_CONFIG, RunConfig, config_from_mapping, load_config
from .io import (
    FormatError,
    ParamsEntry,
    emit_report,
    read_bundle,
    read_pair_dataset,
    read_s4d_params,
    write_bundle,
    write_pair_dataset,
)
from .kernels import (
    S4DParams,
    StabilityError,
    SynthSpec,
    materialize_s4d,
    synth_kernel,
)
from .plot import emit_plot
from .probe import (
    BuiltPairs,
    Cluster,
    EvalResult,
    LabeledPoint,
    MergeRecord,
    PairTask,
    ProbeResult,
    build_pairs,
    evaluate,
    predict,
    run_directprobe,
    separable,
)
from .spectral import (
    DegenerateKernelError,
    Direction,
    Kernel,
    SpectralSummary,
    Spectrum,
    compute_spectrum,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BuiltPairs",
    "Categorization",
    "Cluster",
    "Complementarity",
    "ComplementarityReport",
    "Confidence",
    "DEFAULT_CONFIG",
    "DegenerateKernelError",
    "Direction",
    "EvalResult",
    "FilterClass",
    "FormatError",
    "Kernel",
    "KernelAnalysis",
    "KernelBundle",
    "LabeledPoint",
    "LayerComplementarity",
    "LayerReport",
    "MergeRecord",
    "PairTask",
    "ParamsEntry",
    "ProbeResult",
    "RedundancyPair",
    "RunConfig",
    "S4DParams",
    "ShiftEntry",
    "ShiftReport",
    "SpectralSummary",
    "Spectrum",
    "StabilityError",
    "SynthSpec",
    "analyze_bundle",
    "analyze_redundancy",
    "build_pairs",
    "categorize",
    "classify_by_centroid",
    "classify_by_lhfr",
    "compute_spectrum",
    "config_from_mapping",
    "detect_complementary",
    "diff_bundles",
    "emit_plot",
    "emit_report",
    "evaluate",
    "load_config",
    "materialize_s4d",
    "predict",
    "read_bundle",
    "read_pair_dataset",
    "read_s4d_params",
    "run_directprobe",
    "separable",
    "summarize",
    "synth_kernel",
    "write_bundle",
    "write_pair_dataset",
]
