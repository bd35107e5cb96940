"""Byte-identity pins for the bundle reports, charts and bundles the CLI
writes.

A seeded fixture bundle (3 layers x 2 directions x 4 kernels, N=256,
with one all-zero kernel and one tail-free band-pass kernel) is written
straight to the documented format with numpy, each subcommand runs on
it, and the sha256 of every output must equal the digest pinned here.
A seeded parameter file (2 layers x 2 x 3 kernels, 32 modes) pins the
bundle ``materialize`` writes from it at length 4096, a second one
(2 x 2 x 8 kernels, 32 modes) the bundle it writes at length 16384, and
one band-pass bundle pins ``synth``; each hashes the manifest and every
payload. Seeded train and eval pair datasets (120 and 60 points in 8-D,
each stored as two 4-D representations; two labels overlap and one sits
apart) pin the ``probe`` report.
Any change to a report's bytes fails this file; a deliberate format
change must update the digests in the same commit.
"""
import contextlib
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import spectrobe.cli as cli

LAYERS, KERNELS, N = 3, 4, 256
PARAM_LAYERS, PARAM_KERNELS, MODES, PARAM_LENGTH = 2, 3, 32, 4096
LONG_KERNELS, LONG_LENGTH = 8, 16384  # the benchmark's s4d_export shape
_DIRECTIONS = ("forward", "backward")
PROBE_TRAIN, PROBE_EVAL = 120, 60
PROBE_LABELS = ("comes from", "computed from", "none")

DIGESTS = {
    "analyze": "ed586a6451c6b505603f65ef50668e09d1a55aeb95944c072aa59b955b76a55d",
    "analyze_config": "2e022c635500e9730c968447a9d26e05a6f749dd7d123f34cdd6f78ac57f67e7",
    "analyze_plots": "d6561bb7c919a90673bd7bc4f3486bd9749433eadee4e22c7bad5e1152edb921",
    "complementary": "3da0a6bd487a06c5ec41e27af1c585c7b2d79e9cef2e7fc00ba9642bf286a6ce",
    "diff": "e954912d6f9287de6ad977c23afbe301d7505626ce17921b3bfb045446b8940a",
    "diff_zero_kernel": "d852e0aaf8d185c86798d3d0084dbb7961c65d9ce6d1c08a5d22fc0061673eaf",
    "materialize": "29d67d2650f3c1572f2ac430ef9813cf4b6c6f4bad683430b659d0c22f1505d8",
    "materialize_long": "a6172ff2394720229ee97196491b4418c7c483899780ab6d6f5e33de5dfe70d5",
    "plot_band_pass": "bfa005506d8f8e547c2f20202d5e94406a15dc16b13f3ae79a87467aebe61d74",
    "plot_forward": "77e545428b7bd62bc602763d65ef9e413007a7e89c9c45970054961fbcc41d15",
    "probe": "95cf24479f79cce488b9307c422a0cb3571c5337f524d619bcf9f6db661e67c9",
    "redundancy": "8871b462f309975224a14dc238651ba9c9841fb7195bf8af72ac61d5e78091ee",
    "synth": "6d58f05b1c659465b2a012e381d52dd49b730473d1a22745800dc5d86c17d616",
}


def write_raw_bundle(root, tag, values):
    """Write a (layers, 2, K, N) array as a bundle directory."""
    root.mkdir()
    layers, _, count, n = values.shape
    entries = []
    for layer, d, k in np.ndindex(layers, 2, count):
        rel = f"l{layer + 1}-{_DIRECTIONS[d]}-{k}.f32"
        values[layer, d, k].astype("<f4").tofile(root / rel)
        entries.append({"layer": layer + 1, "direction": _DIRECTIONS[d],
                        "kernel_index": k, "path": rel, "element_count": n})
    manifest = {"model_tag": tag, "N": n, "layer_count": layers,
                "kernels": entries}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def write_raw_pairs(root, rng, n):
    """Write n seeded, labeled 8-D points as a pair dataset: n token pairs
    of 4-D representations. Label 1's mean sits 0.35 from label 0's in
    every coordinate, so the two overlap; label 2's sits 12 away."""
    root.mkdir()
    labels = rng.permutation(np.arange(n) % 3)
    means = np.zeros((3, 8))
    means[1] = 0.35
    means[2, 0] = 12.0
    reps = (means[labels] + rng.normal(size=(n, 8))).astype("<f4").reshape(2 * n, 4)
    ids = [f"t{i:04d}" for i in range(2 * n)]
    (root / "manifest.json").write_text(
        json.dumps({"count": 2 * n, "dimension": 4, "token_ids": ids}))
    reps.tofile(root / "vectors.f32")
    (root / "pairs.txt").write_text("".join(
        f"{ids[2 * i]} {ids[2 * i + 1]} {PROBE_LABELS[label]}\n"
        for i, label in enumerate(labels)))
    return root


def band_pass(low, high, n):
    """Unit gain strictly inside (low, high), linear phase: no tail energy."""
    freqs = np.arange(n // 2 + 1) / n
    gain = ((freqs > low) & (freqs < high)).astype(np.float64)
    return np.fft.irfft(gain * np.exp(-1j * np.pi * np.arange(freqs.size)), n=n)


def params_doc(rng, kernels=PARAM_KERNELS):
    """S4D-Lin poles, random coefficients and a log-uniform step per kernel;
    layer 2 is listed first and one kernel falls back to the file step."""
    poles = -0.5 + 1j * np.pi * np.arange(MODES)

    def kernel():
        coeffs = rng.standard_normal(MODES) + 1j * rng.standard_normal(MODES)
        return {"step": float(np.exp(rng.uniform(np.log(1e-3), np.log(1e-1)))),
                "modes": [{"a": [p.real, p.imag], "c": [c.real, c.imag]}
                          for p, c in zip(poles, coeffs)]}

    layers = [{"layer": layer, **{d: [kernel() for _ in range(kernels)]
                                  for d in _DIRECTIONS}}
              for layer in range(PARAM_LAYERS, 0, -1)]
    del layers[0]["backward"][1]["step"]
    return {"model_tag": "golden-s4d", "step": 0.01, "layers": layers}


def dir_bytes(root):
    """Every file of a directory, each after its name, in name order."""
    return b"".join(p.name.encode() + b"\n" + p.read_bytes()
                    for p in sorted(root.iterdir()))


def fixture_values(rng):
    values = rng.standard_normal((LAYERS, 2, KERNELS, N))
    smooth = np.hamming(33)
    values[0, 0, 1] = np.convolve(values[0, 0, 1], smooth, mode="same")
    values[2, 0, 3] = np.convolve(values[2, 0, 3], smooth, mode="same")
    values[1, 1, 2] = np.diff(values[1, 1, 2], prepend=0.0)
    # a near-duplicate of a scaled, sign-flipped neighbour
    values[0, 1, 3] = -2.5 * values[0, 1, 2] + 0.01 * rng.standard_normal(N)
    values[1, 0, 0] = 0.0
    values[2, 1, 0] = band_pass(0.12, 0.25, N)
    return values


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every pinned output, as name -> bytes, from one set of CLI runs."""
    tmp = tmp_path_factory.mktemp("golden")
    rng = np.random.default_rng(20261017)
    values = fixture_values(rng)
    bundle = write_raw_bundle(tmp / "bundle", "golden", values)
    single = write_raw_bundle(tmp / "single", "golden-1k", values[:, :, :1])
    before_values = values.copy()
    before_values[1, 0, 0] = rng.standard_normal(N)
    after_values = before_values + 0.05 * rng.standard_normal(before_values.shape)
    after_values[0, 0, 0] = np.diff(before_values[0, 0, 0], prepend=0.0)
    after_values[2, 0, 3] = before_values[0, 0, 1]
    before = write_raw_bundle(tmp / "before", "golden-before", before_values)
    after = write_raw_bundle(tmp / "after", "golden-after", after_values)
    config = tmp / "config.json"
    config.write_text(json.dumps({"low_band_fraction": 0.2,
                                  "high_band_fraction": 0.3,
                                  "sc_low_bound": 0.15}))

    out = {}

    def run(name, argv, produced=None):
        capture = tmp / f"{name}.stdout"
        with capture.open("w") as stream, contextlib.redirect_stdout(stream):
            assert cli.main(argv) == 0, argv
        out[name] = (produced or capture).read_bytes()

    run("analyze", ["analyze", "--bundle", str(bundle),
                    "--out", str(tmp / "analysis.json")], tmp / "analysis.json")
    run("analyze_config", ["analyze", "--bundle", str(bundle), "--config",
                           str(config), "--out", str(tmp / "analysis-cfg.json")],
        tmp / "analysis-cfg.json")
    plots = tmp / "plots"
    run("analyze_plots", ["analyze", "--bundle", str(bundle), "--out",
                          str(tmp / "analysis-plots.json"), "--plots", str(plots)])
    out["analyze_plots"] = dir_bytes(plots)
    run("diff", ["diff", "--before", str(before), "--after", str(after),
                 "--out", str(tmp / "shift.json")], tmp / "shift.json")
    run("redundancy", ["redundancy", "--bundle", str(bundle)])
    run("complementary", ["complementary", "--bundle", str(single)])
    run("plot_forward", ["plot", "--bundle", str(single), "--layer", "1",
                         "--direction", "forward", "--out", str(tmp / "f.svg")],
        tmp / "f.svg")
    run("plot_band_pass", ["plot", "--bundle", str(single), "--layer", "3",
                           "--direction", "backward", "--out", str(tmp / "b.svg")],
        tmp / "b.svg")
    zero_diff = tmp / "shift-zero.json"
    out["diff_with_zero_kernel_rc"] = cli.main(
        ["diff", "--before", str(bundle), "--after", str(after),
         "--out", str(zero_diff)])
    out["diff_zero_kernel"] = zero_diff.read_bytes() if zero_diff.exists() else b""
    params = tmp / "params.json"
    params.write_text(json.dumps(params_doc(np.random.default_rng(20261019))))
    run("materialize", ["materialize", "--params", str(params), "--length",
                        str(PARAM_LENGTH), "--out", str(tmp / "s4d")])
    out["materialize"] = dir_bytes(tmp / "s4d")
    params.write_text(json.dumps(params_doc(np.random.default_rng(20261020),
                                            LONG_KERNELS)))
    run("materialize_long", ["materialize", "--params", str(params), "--length",
                             str(LONG_LENGTH), "--out", str(tmp / "s4d-long")])
    out["materialize_long"] = dir_bytes(tmp / "s4d-long")
    run("synth", ["synth", "--class", "band", "--cutoff", "0.12", "--cutoff-high",
                  "0.3", "--length", "256", "--out", str(tmp / "synth")])
    out["synth"] = dir_bytes(tmp / "synth")
    probe_rng = np.random.default_rng(20261021)
    train = write_raw_pairs(tmp / "train", probe_rng, PROBE_TRAIN)
    heldout = write_raw_pairs(tmp / "eval", probe_rng, PROBE_EVAL)
    run("probe", ["probe", "--train", str(train), "--eval", str(heldout),
                  "--task", "dfg", "--out", str(tmp / "probe.json")], tmp / "probe.json")
    out["plot_zero_kernel_rc"] = cli.main(
        ["plot", "--bundle", str(single), "--layer", "2", "--direction",
         "forward", "--out", str(tmp / "never.svg")])
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_are_pinned(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == DIGESTS[name]


def test_fixture_covers_the_edge_cases(outputs):
    analysis = json.loads(outputs["analyze"])
    entries = [k for layer in analysis["layers"] for k in layer["kernels"]]
    assert sum(e["degenerate"] for e in entries) == 1
    assert any(e["summary"] and e["summary"]["tail_free"] for e in entries)
    combined = {e["categorization"]["combined"] for e in entries
                if e["categorization"]}
    assert {"low_pass", "high_pass"} <= combined
    pairs = json.loads(outputs["redundancy"])["pairs"]
    assert any(p["redundant"] for p in pairs)
    shift = json.loads(outputs["diff"])
    assert any(e["shifted_high"] for e in shift["entries"])
    # diff carries an all-zero kernel through as a null row, like every
    # bundle subcommand; plot, which has only that kernel to draw, stops
    # with a usage error
    assert outputs["diff_with_zero_kernel_rc"] == 0
    null_rows = [e for e in json.loads(outputs["diff_zero_kernel"])["entries"]
                 if e["sc_before"] is None]
    assert [(e["layer"], e["direction"], e["kernel_index"]) for e in null_rows] == [
        (2, "forward", 0)]
    assert outputs["plot_zero_kernel_rc"] == 1


def test_the_ci_deselects_only_pinned_digests():
    # pytest ignores a --deselect that matches no test, so a renamed digest
    # would run again in the CI steps that leave it out for its host; the
    # workflow is read as text, since the test extra has no YAML parser
    workflow = (Path(__file__).resolve().parents[1]
                / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    deselected = re.findall(r'--deselect[= ]+"?([^"\s]+)', workflow)
    assert deselected and len(deselected) == workflow.count("--deselect")
    for test_id in deselected:
        name = re.fullmatch(
            r"tests/test_golden\.py::test_output_bytes_are_pinned\[(.+)\]", test_id)
        assert name and name[1] in DIGESTS, test_id
