"""Command-line interface.

Subcommands: analyze, diff, complementary, redundancy, materialize,
synth, probe, plot. Exit code 0 on success, 1 on bad input or a contract
violation, 2 on an internal failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    KernelBundle,
    analyze_bundle,
    analyze_redundancy,
    detect_complementary,
    diff_bundles,
)
from .classify import FilterClass
from .config import DEFAULT_CONFIG, load_config
from .io import (
    analysis_payload,
    complementarity_payload,
    emit_report,
    probe_payload,
    read_bundle,
    read_pair_dataset,
    read_s4d_params,
    redundancy_payload,
    shift_payload,
    write_bundle,
)
from .kernels import SynthSpec, materialize_s4d, synth_kernel
from .plot import emit_plot
from .probe import PairTask, build_pairs, evaluate, run_directprobe
from .spectral import Direction, Kernel, compute_spectrum, summarize


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


_SYNTH_CLASSES = {
    "low": FilterClass.LOW_PASS,
    "high": FilterClass.HIGH_PASS,
    "band": FilterClass.BAND_PASS,
}
_PROBE_TASKS = {
    "distance": PairTask.DISTANCE,
    "siblings": PairTask.SIBLINGS,
    "dfg": PairTask.DFG_EDGE,
}


def _config_from(args):
    return load_config(args.config) if args.config else DEFAULT_CONFIG


def _plot_kernel(bundle, layer: int, direction: Direction, k: int, path) -> None:
    """Chart of kernel ``k`` of ``direction`` in 1-based ``layer``."""
    d = tuple(Direction).index(direction)
    spectrum = compute_spectrum(Kernel(bundle.values[layer - 1, d, k]))
    title = f"{bundle.model_tag} layer {layer} {direction.value} k{k}"
    emit_plot(spectrum, summarize(spectrum), path, title=title)


def _cmd_analyze(args) -> int:
    cfg = _config_from(args)
    bundle = read_bundle(args.bundle)
    reports = analyze_bundle(bundle, cfg)
    emit_report(analysis_payload(bundle, reports), args.out)
    if args.plots:
        plots_dir = Path(args.plots)
        plots_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            for entry in report.entries:
                if entry.degenerate:
                    continue
                layer, direction, k = report.layer, entry.direction, entry.kernel_index
                name = f"layer{layer:03d}_{direction.value}_k{k:02d}.svg"
                _plot_kernel(bundle, layer, direction, k, plots_dir / name)
    return 0


def _cmd_diff(args) -> int:
    cfg = _config_from(args)
    before = read_bundle(args.before)
    after = read_bundle(args.after)
    report = diff_bundles(before, after, cfg)
    emit_report(shift_payload(report, before.model_tag, after.model_tag), args.out)
    return 0


def _cmd_complementary(args) -> int:
    cfg = _config_from(args)
    bundle = read_bundle(args.bundle)
    report = detect_complementary(analyze_bundle(bundle, cfg))
    sys.stdout.write(emit_report(complementarity_payload(report, bundle.model_tag)))
    return 0


def _cmd_redundancy(args) -> int:
    cfg = _config_from(args)
    bundle = read_bundle(args.bundle)
    pairs = analyze_redundancy(bundle, cfg)
    payload = redundancy_payload(pairs, bundle.model_tag, cfg.redundancy_cutoff)
    sys.stdout.write(emit_report(payload))
    return 0


def _cmd_materialize(args) -> int:
    model_tag, entries = read_s4d_params(args.params)
    kernels = []
    for entry in entries:
        try:  # read_s4d_params bounds each kernel, but not at every length
            kernels.append(materialize_s4d(
                entry.params, args.length, layer=entry.layer,
                direction=entry.direction, kernel_index=entry.kernel_index))
        except ValueError as exc:
            raise ValueError(
                f"{args.params}: layer {entry.layer} {entry.direction.value} "
                f"kernel {entry.kernel_index} at length {args.length}: {exc}"
            ) from None
    write_bundle(KernelBundle.from_kernels(model_tag, kernels), args.out)
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        target_class=_SYNTH_CLASSES[args.target_class],
        cutoff_low=args.cutoff,
        cutoff_high=args.cutoff_high,
        length=args.length,
    )
    tag = f"synth-{args.target_class}"
    kernels = [
        synth_kernel(spec, layer=1, direction=direction)
        for direction in (Direction.FORWARD, Direction.BACKWARD)
    ]
    write_bundle(KernelBundle.from_kernels(tag, kernels), args.out)
    return 0


def _cmd_probe(args) -> int:
    task = _PROBE_TASKS[args.task]
    train = build_pairs(*read_pair_dataset(args.train), task)
    heldout = build_pairs(*read_pair_dataset(args.eval), task)
    result = run_directprobe(train.points)
    evaluation = evaluate(result, heldout.points)
    emit_report(probe_payload(task, result, train, heldout, evaluation), args.out)
    return 0


def _cmd_plot(args) -> int:
    bundle = read_bundle(args.bundle)
    if not 1 <= args.layer <= bundle.layer_count:
        raise ValueError(
            f"layer {args.layer} not in bundle (1..{bundle.layer_count})"
        )
    count = bundle.kernel_count_per_direction
    if not 0 <= args.kernel_index < count:
        raise ValueError(
            f"kernel index {args.kernel_index} not in bundle (0..{count - 1})"
        )
    _plot_kernel(bundle, args.layer, Direction(args.direction), args.kernel_index,
                 args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="spectrobe",
        description="Frequency-domain kernel analysis and representation probing.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    config = _Parser(add_help=False)
    config.add_argument("--config", help="JSON threshold overrides")

    p = sub.add_parser("analyze", parents=[config],
                       help="classify every kernel in a bundle")
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--out", required=True, help="report file to write")
    p.add_argument("--plots", help="directory for per-kernel SVG charts")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("diff", parents=[config],
                       help="centroid shift between two checkpoints")
    p.add_argument("--before", required=True, help="bundle directory")
    p.add_argument("--after", required=True, help="bundle directory")
    p.add_argument("--out", required=True, help="report file to write")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser(
        "complementary", parents=[config],
        help="forward/backward band complementarity per layer",
    )
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.set_defaults(handler=_cmd_complementary)

    p = sub.add_parser(
        "redundancy", parents=[config],
        help="pairwise spectral similarity in multi-kernel layers",
    )
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.set_defaults(handler=_cmd_redundancy)

    p = sub.add_parser(
        "materialize", help="turn state-space parameters into a kernel bundle"
    )
    p.add_argument("--params", required=True, help="parameter JSON file")
    p.add_argument("--length", required=True, type=int, help="kernel length")
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.set_defaults(handler=_cmd_materialize)

    p = sub.add_parser("synth", help="synthesize an ideal test filter bundle")
    p.add_argument(
        "--class",
        dest="target_class",
        required=True,
        choices=sorted(_SYNTH_CLASSES),
        help="filter class to synthesize",
    )
    p.add_argument("--cutoff", required=True, type=float,
                   help="cutoff, or lower band edge, in (0, 0.5)")
    p.add_argument("--cutoff-high", type=float,
                   help="upper band edge for band-pass")
    p.add_argument("--length", required=True, type=int, help="kernel length")
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser(
        "probe", help="cluster labeled pairs and score held-out accuracy"
    )
    p.add_argument("--train", required=True, help="pair-dataset directory")
    p.add_argument("--eval", required=True, help="pair-dataset directory")
    p.add_argument("--task", required=True, choices=sorted(_PROBE_TASKS),
                   help="pair transform and label rules")
    p.add_argument("--out", required=True, help="report file to write")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("plot", help="SVG spectrum chart for one kernel")
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--layer", required=True, type=int, help="1-based layer")
    p.add_argument("--direction", required=True,
                   choices=[d.value for d in Direction])
    p.add_argument("--kernel-index", type=int, default=0,
                   help="0-based kernel index within the slot (default 0)")
    p.add_argument("--out", required=True, help="SVG file to write")
    p.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help path
        return 0 if exc.code in (0, None) else 1
    try:
        return int(args.handler(args))
    except (ValueError, OSError, KeyError) as exc:
        print(f"spectrobe: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a bug, not a usage problem
        print(f"spectrobe: internal error: {exc!r}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
