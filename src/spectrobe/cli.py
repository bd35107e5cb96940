"""Command-line interface.

Subcommands: analyze, diff, complementary, redundancy, materialize,
synth, probe, plot. Exit code 0 on success, 1 on bad input, a contract
violation or running out of memory, 2 on an internal failure.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    KernelBundle,
    analyze_bundle,
    analyze_redundancy,
    detect_complementary,
    diff_bundles,
)
from .classify import FilterClass
from .config import DEFAULT_CONFIG, located
from .io import (
    analysis_payload,
    complementarity_payload,
    emit_report,
    load_config,
    probe_payload,
    read_bundle,
    read_pair_dataset,
    read_s4d_params,
    redundancy_payload,
    shift_payload,
    write_bundle,
)
from .kernels import SynthSpec, materialize_s4d, synth_kernel
from .plot import _render, emit_plot
from .probe import PairTask, build_pairs, evaluate, run_directprobe
from .spectral import (
    DIRECTIONS,
    Direction,
    Kernel,
    compute_spectrum,
    magnitude_spectra,
    summarize,
)


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


def _path(text: str) -> str:
    """A path argument; an empty one would read as the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _chart_title(bundle, layer: int, direction: Direction, k: int) -> str:
    """Title of the chart of kernel ``k`` of ``direction`` in 1-based ``layer``."""
    return f"{bundle.model_tag} layer {layer} {direction.value} k{k}"


def _cmd_analyze(args, cfg) -> dict:
    bundle = read_bundle(args.bundle)
    reports = analyze_bundle(bundle, cfg)
    if args.plots:
        plots_dir = Path(args.plots)
        try:
            plots_dir.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # the name is a file's
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                     args.plots) from None
        for report in reports:
            # the spectra analyze_bundle summarized, bit for bit; a chart
            # reads only the centroid and the dominant frequency of the
            # entry's summary, and no config moves either
            freqs, mags = magnitude_spectra(bundle.values[report.layer - 1])
            for entry in report.entries:
                if entry.degenerate:
                    continue
                layer, direction, k = report.layer, entry.direction, entry.kernel_index
                name = f"layer{layer:03d}_{direction.value}_k{k:02d}.svg"
                _render(freqs, mags[DIRECTIONS.index(direction), k], entry.summary,
                        plots_dir / name, _chart_title(bundle, layer, direction, k))
    return analysis_payload(bundle, reports)


def _cmd_diff(args, cfg) -> dict:
    before = read_bundle(args.before)
    after = read_bundle(args.after)
    with located(f"{args.before} vs {args.after}"):
        report = diff_bundles(before, after, cfg)
    return shift_payload(report, before.model_tag, after.model_tag)


def _cmd_complementary(args, cfg) -> dict:
    bundle = read_bundle(args.bundle)
    with located(args.bundle):
        report = detect_complementary(analyze_bundle(bundle, cfg))
    return complementarity_payload(report, bundle.model_tag)


def _cmd_redundancy(args, cfg) -> dict:
    bundle = read_bundle(args.bundle)
    with located(args.bundle):
        pairs = analyze_redundancy(bundle, cfg)
    return redundancy_payload(pairs, bundle.model_tag, cfg.redundancy_cutoff)


def _cmd_materialize(args, cfg) -> None:
    model_tag, params = read_s4d_params(args.params)
    for slot in np.ndindex(params.shape):
        layer, d, k = slot
        # read_s4d_params bounds each kernel, but not at every length
        with located(f"{args.params}: layer {layer + 1} {DIRECTIONS[d].value} "
                     f"kernel {k} at length {args.length}"):
            kernel = materialize_s4d(params[slot], args.length).values
        if not any(slot):  # allocated once the first kernel has checked the length
            values = np.empty((*params.shape, args.length))
        values[slot] = kernel
    values.flags.writeable = False
    with located(args.params):
        write_bundle(KernelBundle(model_tag, values), args.out)


def _cmd_synth(args, cfg) -> None:
    spec = SynthSpec(
        target_class=_SYNTH_CLASSES[args.target_class],
        cutoff_low=args.cutoff,
        cutoff_high=args.cutoff_high,
        length=args.length,
    )
    values = synth_kernel(spec).values  # one layer, the same kernel both ways
    write_bundle(KernelBundle(f"synth-{args.target_class}",
                              np.broadcast_to(values, (1, 2, 1, values.size))),
                 args.out)


def _cmd_probe(args, cfg) -> dict:
    task = _PROBE_TASKS[args.task]
    train = read_pair_dataset(args.train)
    with located(args.train):  # rebinding drops each read dataset once built
        train = build_pairs(*train, task)
    heldout = read_pair_dataset(args.eval)
    with located(args.eval):
        heldout = build_pairs(*heldout, task)
    with located(args.train):
        result = run_directprobe(train.points)
    with located(args.eval):
        evaluation = evaluate(result, heldout.points)
    return probe_payload(task, result, train, heldout, evaluation)


def _cmd_plot(args, cfg) -> None:
    bundle = read_bundle(args.bundle)
    direction, k = Direction(args.direction), args.kernel_index
    with located(args.bundle):
        if not 1 <= args.layer <= bundle.layer_count:
            raise ValueError(f"layer {args.layer} not in bundle "
                             f"(1..{bundle.layer_count})")
        count = bundle.kernel_count_per_direction
        if not 0 <= k < count:
            raise ValueError(f"kernel index {k} not in bundle (0..{count - 1})")
        d = DIRECTIONS.index(direction)
        spectrum = compute_spectrum(Kernel(bundle.values[args.layer - 1, d, k]))
        summary = summarize(spectrum)
    emit_plot(spectrum, summary, args.out,
              title=_chart_title(bundle, args.layer, direction, k))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="spectrobe",
        description="Frequency-domain kernel analysis and representation probing.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    config = _Parser(add_help=False)
    config.add_argument("--config", type=_path, help="JSON threshold overrides")

    p = sub.add_parser("analyze", parents=[config],
                       help="classify every kernel in a bundle")
    p.add_argument("--bundle", type=_path, required=True, help="bundle directory")
    p.add_argument("--out", type=_path, required=True, help="report file to write")
    p.add_argument("--plots", type=_path, help="directory for per-kernel SVG charts")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("diff", parents=[config],
                       help="centroid shift between two checkpoints")
    p.add_argument("--before", type=_path, required=True, help="bundle directory")
    p.add_argument("--after", type=_path, required=True, help="bundle directory")
    p.add_argument("--out", type=_path, required=True, help="report file to write")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser("complementary", parents=[config],
                       help="forward/backward band complementarity per layer")
    p.add_argument("--bundle", type=_path, required=True, help="bundle directory")
    p.set_defaults(handler=_cmd_complementary)

    p = sub.add_parser("redundancy", parents=[config],
                       help="pairwise spectral similarity in multi-kernel layers")
    p.add_argument("--bundle", type=_path, required=True, help="bundle directory")
    p.set_defaults(handler=_cmd_redundancy)

    p = sub.add_parser(
        "materialize", help="turn state-space parameters into a kernel bundle"
    )
    p.add_argument("--params", type=_path, required=True, help="parameter JSON file")
    p.add_argument("--length", required=True, type=int, help="kernel length")
    p.add_argument("--out", type=_path, required=True, help="bundle directory to write")
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
    p.add_argument("--out", type=_path, required=True, help="bundle directory to write")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser(
        "probe", help="cluster labeled pairs and score held-out accuracy"
    )
    p.add_argument("--train", type=_path, required=True, help="pair-dataset directory")
    p.add_argument("--eval", type=_path, required=True, help="pair-dataset directory")
    p.add_argument("--task", required=True, choices=sorted(_PROBE_TASKS),
                   help="pair transform and label rules")
    p.add_argument("--out", type=_path, required=True, help="report file to write")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("plot", help="SVG spectrum chart for one kernel")
    p.add_argument("--bundle", type=_path, required=True, help="bundle directory")
    p.add_argument("--layer", required=True, type=int, help="1-based layer")
    p.add_argument("--direction", required=True,
                   choices=[d.value for d in Direction])
    p.add_argument("--kernel-index", type=int, default=0,
                   help="0-based kernel index within the slot (default 0)")
    p.add_argument("--out", type=_path, required=True, help="SVG file to write")
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
        # the config before any input is read, the report once the handler is done
        config = getattr(args, "config", None)
        report = args.handler(args, load_config(config) if config else DEFAULT_CONFIG)
        if report is not None:
            out = getattr(args, "out", None)
            text = emit_report(report, out)
            if out is None:
                sys.stdout.write(text)
        return 0
    except (ValueError, OSError) as exc:
        print(f"spectrobe: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input too large for this host, not a bug
        detail = f": {exc}" if str(exc) else ""  # numpy's text gives the size
        print(f"spectrobe: error: ran out of memory{detail}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a bug, not a usage problem
        print(f"spectrobe: internal error: {exc!r}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
