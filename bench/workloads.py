"""Seeded inputs, CLI steps and output checks for the four workloads.

Every workload is a closed loop of CLI steps run by one client: each step
starts after the previous one has written its report. The inputs are
written by this module, straight to the documented file formats
(docs/formats.md), so the program under test only ever sees generated
files. The checks recompute the expected answer from those inputs with
plain numpy and never call spectrobe.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# documented defaults of the run configuration (docs/formats.md)
SC_LOW, SC_HIGH = 1.0 / 6.0, 1.0 / 3.0
LHFR_LOW_MIN, LHFR_HIGH_MAX = 10.0, 1.0
LOW_EDGE, HIGH_EDGE = 0.1 * 0.5, (1.0 - 0.4) * 0.5
ZERO_BAND_FLOOR = 1e-6
CENTROID_TOL = 1e-9
SIMILARITY_TOL = 1e-9

WHY = {
    "deep_checkpoint": "read-heavy per-kernel path of a real deep checkpoint: "
    "analyze, diff and redundancy over two 24x2x32 bundles at N=4096; rfft, "
    "summarize and categorize dominate",
    "wide_layer": "pairing and emit: redundancy over 130,560 pairs and analyze "
    "--plots on a 2x2x256 bundle at N=1024; per-kernel spectral work is small",
    "s4d_export": "write path: materialize 32 kernels of 32 modes at L=16384, "
    "then analyze the bundle it wrote; materialize_s4d dominates",
    "probe_overlap": "the only probe workload: DirectProbe on 300 points in 8-D, "
    "two labels overlapping and one apart; linprog dominates",
    "checkpoint_suite": "deep_checkpoint, wide_layer and s4d_export as one pass, so a "
    "run lasts long enough to be steady on a noisy 2-core host; spans split the layers",
}

SIZES = {
    "full": {
        "deep_checkpoint": {"layers": 24, "kernels": 32, "length": 4096},
        "wide_layer": {"layers": 2, "kernels": 256, "length": 1024},
        "s4d_export": {"layers": 2, "kernels": 8, "modes": 32, "length": 16384},
        "probe_overlap": {"points": 300},
    },
    "tiny": {
        "deep_checkpoint": {"layers": 2, "kernels": 3, "length": 64},
        "wide_layer": {"layers": 1, "kernels": 6, "length": 64},
        "s4d_export": {"layers": 1, "kernels": 2, "modes": 4, "length": 128},
        "probe_overlap": {"points": 24},
    },
}

_DIRECTIONS = ("forward", "backward")
_CLASSES = np.array(["low_pass", "band_pass", "high_pass"])


@dataclass
class Step:
    """One CLI call. ``produces`` lists the files and directories it
    writes; with ``stdout`` set, the first of them receives its standard
    output."""

    argv: list[str]
    produces: list[Path]
    stdout: bool = False


@dataclass
class Plan:
    """What one pass of a workload runs and how its outputs are judged.

    ``check`` gets the first pass's outputs (path relative to the work
    directory -> bytes) and the clustering captured in-process, and
    returns one problem list per step. ``items`` is the work per pass in
    the workload's own unit, counted from the input.
    """

    steps: list[Step]
    items: int
    check: Callable[[dict[str, bytes], object], list[list[str]]]
    kernel_steps: int = 0  # kernels handled per pass, summed over steps


# ---------------------------------------------------------------- writing


def _write_bundle(root: Path, tag: str, kernels: np.ndarray) -> None:
    """kernels: float32 array (layers, 2, K, N), written as a bundle."""
    root.mkdir()
    layers, _, count, n = kernels.shape
    entries = []
    for layer in range(layers):
        for d, direction in enumerate(_DIRECTIONS):
            for k in range(count):
                rel = f"layer{layer + 1:03d}_{direction}_k{k:02d}.f32"
                kernels[layer, d, k].astype("<f4").tofile(root / rel)
                entries.append({"layer": layer + 1, "direction": direction,
                                "kernel_index": k, "path": rel,
                                "element_count": n})
    manifest = {"model_tag": tag, "N": n, "layer_count": layers,
                "kernels": entries}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _read_bundle(root: Path) -> np.ndarray:
    """A bundle back as float32 (layers, 2, K, N), from its manifest."""
    manifest = json.loads((root / "manifest.json").read_text())
    n, layers = manifest["N"], manifest["layer_count"]
    count = len(manifest["kernels"]) // (2 * layers)
    out = np.empty((layers, 2, count, n), dtype=np.float32)
    for e in manifest["kernels"]:
        out[e["layer"] - 1, _DIRECTIONS.index(e["direction"]),
            e["kernel_index"]] = np.fromfile(root / e["path"], dtype="<f4")
    return out


def _damped_modes(rng, shape, n, omega):
    """Sum of damped cosines, the impulse response shape of an SSM layer.

    omega: (*shape, modes) angular frequencies; returns float32 (*shape, n).
    """
    modes = omega.shape[-1]
    alpha = rng.uniform(0.002, 0.05, (*shape, modes))
    amp = rng.normal(size=(*shape, modes))
    phase = rng.uniform(0, 2 * np.pi, (*shape, modes))
    t = np.arange(n)
    out = np.zeros((*shape, n))
    for m in range(modes):
        out += (amp[..., m, None] * np.exp(-alpha[..., m, None] * t)
                * np.cos(omega[..., m, None] * t + phase[..., m, None]))
    return out.astype(np.float32)


def _band_omegas(rng, shape, modes=4):
    """Mode frequencies drawn per kernel from a low, middle or high band."""
    bands = np.array([[0.0, 0.04], [0.12, 0.3], [0.38, 0.5]])
    which = rng.choice(3, size=shape, p=[0.5, 0.25, 0.25])
    lo, hi = bands[which, 0], bands[which, 1]
    cycles = rng.uniform(size=(*shape, modes)) * (hi - lo)[..., None] + lo[..., None]
    return 2 * np.pi * cycles


# ---------------------------------------------------------------- oracles


def expected_analysis(kernels: np.ndarray):
    """Centroid and combined class of every kernel, in float64.

    Class strings follow the report; None is an outlier (the two rules
    disagree head-on).
    """
    x = kernels.astype(np.float64)
    n = x.shape[-1]
    mags = np.abs(np.fft.rfft(x, axis=-1))
    freqs = np.arange(mags.shape[-1]) / n
    total = mags.sum(axis=-1)
    centroid = (freqs * mags).sum(axis=-1) / total
    e_low = mags[..., freqs <= LOW_EDGE].sum(axis=-1)
    e_high = mags[..., freqs >= HIGH_EDGE].sum(axis=-1)
    tail_free = (e_low <= ZERO_BAND_FLOOR * total) & (e_high <= ZERO_BAND_FLOOR * total)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tail_free, 1.0, e_low / e_high)
    by_sc = np.where(centroid < SC_LOW, 0, np.where(centroid > SC_HIGH, 2, 1))
    by_ratio = np.where(ratio > LHFR_LOW_MIN, 0, np.where(ratio < LHFR_HIGH_MAX, 2, 1))
    combined = np.where(by_sc == by_ratio, by_sc,
                        np.where(by_sc == 1, by_ratio,
                                 np.where(by_ratio == 1, by_sc, -1)))
    classes = np.where(combined < 0, None, _CLASSES[np.maximum(combined, 0)])
    return centroid, classes, mags


def _check_analysis(report: dict, kernels: np.ndarray) -> list[str]:
    centroid, classes, _ = expected_analysis(kernels)
    layers, _, count, _ = kernels.shape
    problems = []
    seen = 0
    for layer in report["layers"]:
        for e in layer["kernels"]:
            idx = (layer["layer"] - 1, _DIRECTIONS.index(e["direction"]),
                   e["kernel_index"])
            seen += 1
            got_sc = e["summary"]["centroid"]
            if abs(got_sc - centroid[idx]) > CENTROID_TOL:
                problems.append(f"analyze {idx}: centroid {got_sc} != {centroid[idx]}")
            if e["categorization"]["combined"] != classes[idx]:
                problems.append(f"analyze {idx}: class "
                                f"{e['categorization']['combined']} != {classes[idx]}")
    if seen != layers * 2 * count:
        problems.append(f"analyze: {seen} kernels reported, expected {layers * 2 * count}")
    return problems[:5]


def _check_diff(report: dict, before: np.ndarray, after: np.ndarray) -> list[str]:
    sc_b, cls_b, _ = expected_analysis(before)
    sc_a, cls_a, _ = expected_analysis(after)
    layers, _, count, _ = before.shape
    problems = []
    entries = report["entries"]
    if len(entries) != layers * 2 * count:
        return [f"diff: {len(entries)} entries, expected {layers * 2 * count}"]
    for e in entries:
        idx = (e["layer"] - 1, _DIRECTIONS.index(e["direction"]), e["kernel_index"])
        for key, want in (("sc_before", sc_b), ("sc_after", sc_a)):
            if abs(e[key] - want[idx]) > CENTROID_TOL:
                problems.append(f"diff {idx}: {key} {e[key]} != {want[idx]}")
        for key, want in (("class_before", cls_b), ("class_after", cls_a)):
            if e[key] != want[idx]:
                problems.append(f"diff {idx}: {key} {e[key]} != {want[idx]}")
    return problems[:5]


def _check_redundancy(report: dict, kernels: np.ndarray) -> list[str]:
    """Every same-slot pair in order, scored by a plain Gram matrix."""
    _, _, mags = expected_analysis(kernels)
    layers, _, count, _ = kernels.shape
    unit = mags / np.linalg.norm(mags, axis=-1, keepdims=True)
    ia, ib = np.triu_indices(count, k=1)
    pairs = report["pairs"]
    if len(pairs) != layers * 2 * ia.size:
        return [f"redundancy: {len(pairs)} pairs, expected {layers * 2 * ia.size}"]
    got = np.array([[p["layer"] - 1, _DIRECTIONS.index(p["direction"]),
                     p["kernel_index_a"], p["kernel_index_b"]] for p in pairs])
    want = np.array([[layer, d, a, b] for layer in range(layers) for d in range(2)
                     for a, b in zip(ia, ib)])
    if not np.array_equal(got, want):
        return ["redundancy: pair order or indices differ"]
    gram = np.einsum("ldkn,ldjn->ldkj", unit, unit)
    expected = gram[got[:, 0], got[:, 1], got[:, 2], got[:, 3]]
    sims = np.array([p["similarity"] for p in pairs])
    bad = np.flatnonzero(np.abs(sims - expected) > SIMILARITY_TOL)
    return [f"redundancy pair {i}: similarity {sims[i]} != {expected[i]}"
            for i in bad[:5]]


def _json(outputs: dict[str, bytes], rel: str) -> dict | None:
    return json.loads(outputs[rel]) if rel in outputs else None


def _missing(rel: str) -> list[str]:
    return [f"{rel}: not written"]


# ---------------------------------------------------------------- workloads


def deep_checkpoint(root: Path, rng, size: dict) -> Plan:
    """Two 24-layer x 2-direction x 32-kernel bundles at N=4096 (1,536
    kernels, 25 MB of float32 each; the second is a drifted copy of the
    first). A pass runs analyze, diff (before -> after) and redundancy
    (23,808 pairs). Why: the read-heavy per-kernel path, the shape of a
    real deep checkpoint. rfft + summarize + categorize is the largest
    stage, ahead of JSON emit and read_bundle; pairing is small and
    kernels, probe and plot do no work.
    """
    shape = (size["layers"], 2, size["kernels"])
    omega = _band_omegas(rng, shape)
    before = _damped_modes(rng, shape, size["length"], omega)
    drift = np.clip(omega * (1 + 0.08 * rng.normal(size=omega.shape)), 0, np.pi)
    after = _damped_modes(rng, shape, size["length"], drift)
    _write_bundle(root / "before", "deep-before", before)
    _write_bundle(root / "after", "deep-after", after)
    out = root / "out"
    steps = [
        Step(["analyze", "--bundle", str(root / "before"), "--out", str(out / "analysis.json")],
             [out / "analysis.json"]),
        Step(["diff", "--before", str(root / "before"), "--after", str(root / "after"),
              "--out", str(out / "shift.json")], [out / "shift.json"]),
        Step(["redundancy", "--bundle", str(root / "before")], [out / "redundancy.json"],
             stdout=True),
    ]

    def check(outputs, _probe):
        a, d, r = (_json(outputs, f"out/{name}.json")
                   for name in ("analysis", "shift", "redundancy"))
        return [
            _check_analysis(a, before) if a else _missing("analysis.json"),
            _check_diff(d, before, after) if d else _missing("shift.json"),
            _check_redundancy(r, before) if r else _missing("redundancy.json"),
        ]

    kernels = before[..., 0].size
    return Plan(steps, items=4 * kernels, check=check, kernel_steps=4 * kernels)


def wide_layer(root: Path, rng, size: dict) -> Plan:
    """One 2 x 2 x 256 bundle at N=1024. A pass runs redundancy (130,560
    pairs) and analyze --plots (1,024 SVGs). Why: pairing, JSON emit of a
    24 MB report and SVG emit dominate while per-kernel spectral work is
    small, so a spectral speedup should leave this workload flat and a
    pairing or emit speedup should not show on deep_checkpoint in the
    same proportion. A tenth of the kernels are rescaled, possibly
    sign-flipped near-copies of another kernel in their slot, so some
    pairs are flagged redundant.
    """
    count = size["kernels"]
    shape = (size["layers"], 2, count)
    kernels = _damped_modes(rng, shape, size["length"], _band_omegas(rng, shape))
    copies = max(1, count // 10)
    for layer in range(shape[0]):
        for d in range(2):
            dst = rng.choice(count, copies, replace=False)
            src = rng.integers(0, count, copies)
            scale = rng.choice([-1.0, 1.0], copies) * rng.uniform(0.5, 2.0, copies)
            noise = 1e-3 * rng.normal(size=(copies, size["length"]))
            k = kernels[layer, d].astype(np.float64)
            kernels[layer, d, dst] = (scale[:, None] * k[src] + noise).astype(np.float32)
    _write_bundle(root / "bundle", "wide", kernels)
    out = root / "out"
    steps = [
        Step(["redundancy", "--bundle", str(root / "bundle")], [out / "redundancy.json"],
             stdout=True),
        Step(["analyze", "--bundle", str(root / "bundle"), "--out", str(out / "analysis.json"),
              "--plots", str(out / "plots")], [out / "analysis.json", out / "plots"]),
    ]

    def check(outputs, _probe):
        r, a = _json(outputs, "out/redundancy.json"), _json(outputs, "out/analysis.json")
        plots = sum(1 for rel in outputs if rel.startswith("out/plots/") and rel.endswith(".svg"))
        analyze = _check_analysis(a, kernels) if a else _missing("analysis.json")
        if plots != kernels[..., 0].size:
            analyze.append(f"analyze --plots: {plots} SVGs, expected {kernels[..., 0].size}")
        return [_check_redundancy(r, kernels) if r else _missing("redundancy.json"), analyze]

    ia = np.triu_indices(count, k=1)[0]
    return Plan(steps, items=shape[0] * 2 * ia.size, check=check,
                kernel_steps=2 * kernels[..., 0].size)


def s4d_export(root: Path, rng, size: dict) -> Plan:
    """One parameter file, 2 layers x 2 x 8 kernels x 32 modes. A pass
    runs materialize --length 16384, then analyze of the bundle it wrote.
    Why: the write path (params -> bundle on disk -> read back), where
    materialize_s4d is nearly the whole pass; this is the largest cost a
    real model would hit.
    """
    layers, count, modes, length = (size[k] for k in ("layers", "kernels", "modes", "length"))
    # S4D-Lin style: a_n = -1/2 + i*pi*n, with a log-uniform step per kernel
    poles = -0.5 + 1j * np.pi * np.arange(modes)
    steps_dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), (layers, 2, count)))
    coeffs = rng.normal(size=(layers, 2, count, modes)) + 1j * rng.normal(
        size=(layers, 2, count, modes))
    spec = {"model_tag": "s4d", "step": 0.01, "layers": [
        {"layer": layer + 1, **{
            direction: [
                {"step": float(steps_dt[layer, d, k]),
                 "modes": [{"a": [p.real, p.imag], "c": [c.real, c.imag]}
                           for p, c in zip(poles, coeffs[layer, d, k])]}
                for k in range(count)]
            for d, direction in enumerate(_DIRECTIONS)}}
        for layer in range(layers)]}
    params = root / "params.json"
    params.write_text(json.dumps(spec) + "\n")
    # the file holds float64 reprs, so the closed form below sees the
    # exact values the reader parses
    out = root / "out"
    steps = [
        Step(["materialize", "--params", str(params), "--length", str(length),
              "--out", str(out / "bundle")], [out / "bundle"]),
        Step(["analyze", "--bundle", str(out / "bundle"), "--out", str(out / "analysis.json")],
             [out / "analysis.json"]),
    ]

    def check(outputs, _probe):
        if "out/bundle/manifest.json" not in outputs:
            return [_missing("bundle"), _missing("analysis.json")]
        kernels = _read_bundle(out / "bundle")
        problems = []
        if kernels.shape != (layers, 2, count, length):
            problems.append(f"materialize: bundle shape {kernels.shape}")
        else:
            # closed form K[l] = Re sum_n c_n bbar_n exp(step a_n l) at a
            # spread of sample positions
            ls = np.unique(np.linspace(0, length - 1, 64).astype(int))
            dt = steps_dt[..., None]
            abar = np.exp(dt * poles)
            bbar = (abar - 1.0) / poles
            want = np.einsum("ldkm,ldkmt->ldkt", coeffs * bbar,
                             np.exp(dt[..., None] * poles[:, None] * ls)).real
            scale = np.abs(want).max(axis=-1, keepdims=True)
            err = np.abs(kernels[..., ls] - want) / scale
            if err.max() > 1e-6:
                problems.append(f"materialize: sample error {err.max():.3g} of peak")
        a = _json(outputs, "out/analysis.json")
        return [problems, _check_analysis(a, kernels) if a else _missing("analysis.json")]

    return Plan(steps, items=layers * 2 * count * length, check=check,
                kernel_steps=2 * layers * 2 * count)


LABELS = ("comes from", "computed from", "none")


def _pair_dataset(root: Path, points: np.ndarray, labels: np.ndarray) -> None:
    """Write n labeled 8-D points as n token pairs of 4-D representations."""
    root.mkdir()
    n, dim = points.shape
    half = dim // 2
    ids = [f"t{i:05d}" for i in range(2 * n)]
    reps = points.reshape(2 * n, half).astype("<f4")
    manifest = {"count": 2 * n, "dimension": half, "token_ids": ids}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    reps.tofile(root / "vectors.f32")
    (root / "pairs.txt").write_text(
        "".join(f"{ids[2 * i]} {ids[2 * i + 1]} {LABELS[labels[i]]}\n" for i in range(n)))


def _probe_points(rng, n):
    labels = rng.permutation(np.arange(n) % 3)
    means = np.zeros((3, 8))
    means[1, :] = 0.35       # overlaps label 0
    means[2, 0] = 12.0       # sits apart
    points = means[labels] + rng.normal(size=(n, 8))
    # the reader sees float32; keep the exact values the probe will see
    return points.astype(np.float32).astype(np.float64), labels


def probe_overlap(root: Path, rng, size: dict) -> Plan:
    """probe --task dfg with 3 labels and 8-D points (4-D representations
    concatenated): 300 training and 300 held-out points. Two labels
    overlap and one sits apart, so most separable calls are settled by
    the gap shortcut and a minority reach the LP. Points are of unit
    scale, so margins sit far above the separability tolerance. Why: the
    only workload that touches the probe; linprog takes most of a pass.
    """
    n = size["points"]
    train, train_labels = _probe_points(rng, n)
    heldout, heldout_labels = _probe_points(rng, n)
    _pair_dataset(root / "train", train, train_labels)
    _pair_dataset(root / "eval", heldout, heldout_labels)
    out = root / "out"
    steps = [Step(["probe", "--train", str(root / "train"), "--eval", str(root / "eval"),
                   "--task", "dfg", "--out", str(out / "probe.json")], [out / "probe.json"])]

    def check(outputs, probe_result):
        report = _json(outputs, "out/probe.json")
        if report is None:
            return [_missing("probe.json")]
        return [_check_probe(report, probe_result, train, train_labels,
                             heldout, heldout_labels)]

    return Plan(steps, items=n, check=check)


def _check_probe(report, result, train, train_labels, heldout, heldout_labels):
    """Clusters partition the points, each is label-pure, and the reported
    accuracy is what nearest-cluster prediction over them gives."""
    problems = []
    n = len(train)
    if not report["converged"]:
        return ["probe: did not converge"]
    if report["train_points"] != n or report["eval_points"] != len(heldout):
        problems.append("probe: point counts differ from the input")
    if result is None:
        return problems + ["probe: no clustering captured"]
    members = [np.array(c.member_indices) for c in result.clusters]
    flat = np.sort(np.concatenate(members))
    if not np.array_equal(flat, np.arange(n)):
        problems.append("probe: clusters do not partition the training points")
        return problems
    if report["cluster_count"] != len(members) or report["merge_count"] != n - len(members):
        problems.append("probe: cluster or merge count inconsistent with the clustering")
    for c, m in zip(result.clusters, members):
        if set(train_labels[m]) != {LABELS.index(c.label)}:
            problems.append(f"probe: cluster {c.member_indices[:3]}... is not label-pure")
    dist = np.stack([np.linalg.norm(train[m][None, :, :] - heldout[:, None, :], axis=2).min(axis=1)
                     for m in members], axis=1)
    cluster_label = np.array([LABELS.index(c.label) for c in result.clusters])
    predicted = cluster_label[np.argmin(dist, axis=1)]
    for li, label in enumerate(LABELS):
        mask = heldout_labels == li
        want = float((predicted[mask] == li).mean())
        got = report["per_label_accuracy"].get(label)
        if got is None or abs(got - want) > 1e-12:
            problems.append(f"probe: accuracy for {label!r} is {got}, expected {want}")
    return problems


WORKLOADS = {
    "deep_checkpoint": deep_checkpoint,
    "wide_layer": wide_layer,
    "s4d_export": s4d_export,
    "probe_overlap": probe_overlap,
}
# One pass of a suite runs its parts' passes back to back, each on the
# inputs it gets alone with the same seed. Its items are kernels handled
# per step. Why: wall time on a shared 2-core host drifts by +-25% over
# tens of seconds, so single-part runs of about 30 s were not steady; a
# run of the suite measures three times as long.
SUITES = {"checkpoint_suite": ("deep_checkpoint", "wide_layer", "s4d_export")}


def _suite(parts: dict[str, Plan]) -> Plan:
    def check(outputs, probe_result):
        found = []
        for name, plan in parts.items():
            prefix = name + "/"
            found += plan.check({rel[len(prefix):]: data for rel, data in outputs.items()
                                 if rel.startswith(prefix)}, probe_result)
        return found

    kernel_steps = sum(plan.kernel_steps for plan in parts.values())
    return Plan([step for plan in parts.values() for step in plan.steps],
                items=kernel_steps, check=check, kernel_steps=kernel_steps)


def make(name: str, root: Path, seed: int, size: str = "full") -> Plan:
    """Generate a workload's inputs under root and return its pass plan."""
    root.mkdir(parents=True)
    if name in SUITES:
        return _suite({part: make(part, root / part, seed, size) for part in SUITES[name]})
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](root, rng, SIZES[size][name])
