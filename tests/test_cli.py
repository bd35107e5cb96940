import copy
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import spectrobe
import spectrobe.cli as cli
from spectrobe import (
    Direction,
    Kernel,
    KernelBundle,
    read_bundle,
    write_bundle,
    write_pair_dataset,
)

FWD = Direction.FORWARD
BWD = Direction.BACKWARD


@pytest.fixture
def band_bundle_dir(tmp_path):
    out = tmp_path / "band-bundle"
    assert cli.main([
        "synth", "--class", "band", "--cutoff", "0.2", "--cutoff-high", "0.3",
        "--length", "64", "--out", str(out),
    ]) == 0
    return out


@pytest.fixture
def impulse_bundle_dir(tmp_path):
    kernels = [
        Kernel(np.eye(100)[0], layer=1, direction=d) for d in (FWD, BWD)
    ]
    out = tmp_path / "impulse-bundle"
    write_bundle(KernelBundle.from_kernels("impulse", kernels), out)
    return out


@pytest.fixture
def multi_kernel_bundle_dir(tmp_path):
    rng = np.random.default_rng(70)
    kernels = []
    for direction in (FWD, BWD):
        for idx in range(2):
            kernels.append(
                Kernel(rng.standard_normal(32), layer=1, direction=direction,
                       kernel_index=idx)
            )
    out = tmp_path / "multi-bundle"
    write_bundle(KernelBundle.from_kernels("multi", kernels), out)
    return out


@pytest.fixture
def params_file(tmp_path):
    doc = {
        "model_tag": "ssm",
        "step": 0.1,
        "layers": [
            {
                "layer": 1,
                "forward": [{"modes": [{"a": [-1.0, 2.0], "c": [1.0, 0.0]}]}],
                "backward": [{"modes": [{"a": [-0.5, 1.0], "c": [0.0, 1.0]}]}],
            }
        ],
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def pair_dataset_dir(tmp_path):
    reps = {
        "a": np.array([0.0, 0.0]),
        "b": np.array([0.5, 0.0]),
        "c": np.array([10.0, 10.0]),
        "d": np.array([10.0, 9.0]),
    }
    pairs = [("a", "b", "2"), ("c", "d", "3"), ("a", "c", "7")]
    out = tmp_path / "pairs"
    write_pair_dataset(reps, pairs, out)
    return out


class TestAnalyze:
    def test_writes_report(self, band_bundle_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(
            ["analyze", "--bundle", str(band_bundle_dir), "--out", str(out)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        data = json.loads(out.read_text())
        assert data["report"] == "analysis"
        verdicts = [
            k["categorization"]["combined"]
            for layer in data["layers"]
            for k in layer["kernels"]
        ]
        assert verdicts == ["band_pass", "band_pass"]

    def test_reruns_are_byte_identical(self, band_bundle_dir, tmp_path):
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        for out in (one, two):
            assert cli.main(
                ["analyze", "--bundle", str(band_bundle_dir), "--out", str(out)]
            ) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_plots_directory(self, band_bundle_dir, tmp_path):
        out = tmp_path / "report.json"
        plots = tmp_path / "charts"
        rc = cli.main([
            "analyze", "--bundle", str(band_bundle_dir), "--out", str(out),
            "--plots", str(plots),
        ])
        assert rc == 0
        names = sorted(p.name for p in plots.iterdir())
        assert names == ["layer001_backward_k00.svg", "layer001_forward_k00.svg"]
        assert all((plots / n).read_text().startswith("<svg") for n in names)

    def test_plots_make_their_directory_once(self, tmp_path, monkeypatch):
        bundle = tmp_path / "bundle"
        values = np.random.default_rng(3).standard_normal((3, 2, 4, 32))
        write_bundle(KernelBundle("m", values), bundle)
        made = []
        mkdir = Path.mkdir

        def counted_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counted_mkdir)
        plots = tmp_path / "plots"
        assert cli.main(["analyze", "--bundle", str(bundle), "--out",
                         str(tmp_path / "r.json"), "--plots", str(plots)]) == 0
        assert len(list(plots.iterdir())) == values[..., 0].size
        assert made == [plots]

    def test_plots_directory_is_made_by_the_first_chart(self, tmp_path):
        # every kernel degenerate: no chart, so no directory either
        bundle = tmp_path / "bundle"
        write_bundle(KernelBundle("zero", np.zeros((2, 2, 1, 16))), bundle)
        plots = tmp_path / "plots"
        assert cli.main(["analyze", "--bundle", str(bundle), "--out",
                         str(tmp_path / "r.json"), "--plots", str(plots)]) == 0
        assert (tmp_path / "r.json").exists() and not plots.exists()

    @pytest.mark.parametrize("length", [7, 64, 257])
    def test_plots_are_the_plot_command_charts(self, tmp_path, capsys, length):
        # odd, even and prime lengths; a tag that a %-template or the markup
        # would change; a config that moves both band edges; one zero kernel
        values = np.random.default_rng(length).standard_normal((2, 2, 3, length))
        values[1, 0, 2] = 0.0
        tag = "m %s %% & <x>"
        bundle = tmp_path / "bundle"
        write_bundle(KernelBundle(tag, values), bundle)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"low_band_fraction": 0.3, "high_band_fraction": 0.25}))
        plots = tmp_path / "plots"
        assert cli.main(["analyze", "--bundle", str(bundle), "--out",
                         str(tmp_path / "r.json"), "--plots", str(plots),
                         "--config", str(cfg)]) == 0
        names = []
        for layer, d, k in np.ndindex(values.shape[:3]):
            direction = ("forward", "backward")[d]
            out = tmp_path / "plot.svg"
            rc = cli.main(["plot", "--bundle", str(bundle), "--layer", str(layer + 1),
                           "--direction", direction, "--kernel-index", str(k),
                           "--out", str(out)])
            if (layer, d, k) == (1, 0, 2):
                assert rc == 1
                assert "all-zero spectrum" in capsys.readouterr().err
                continue
            assert rc == 0
            names.append(f"layer{layer + 1:03d}_{direction}_k{k:02d}.svg")
            chart = (plots / names[-1]).read_bytes()
            assert chart == out.read_bytes()
            assert (f">m %s %% &amp; &lt;x&gt; layer {layer + 1} {direction} k{k}<"
                    .encode() in chart)
        assert sorted(p.name for p in plots.iterdir()) == sorted(names)

    def test_plots_compute_no_spectrum_per_kernel(self, tmp_path, monkeypatch):
        layers = 3
        values = np.random.default_rng(9).standard_normal((layers, 2, 4, 32))
        write_bundle(KernelBundle("rows", values), tmp_path / "bundle")

        def refuse(*args, **kwargs):
            raise AssertionError("a spectrum was computed for one kernel")

        rfft, calls = np.fft.rfft, []

        def counted_rfft(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        for module in (spectrobe.spectral, cli):
            for name in ("compute_spectrum", "summarize"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(spectrobe.spectral.Spectrum, "__post_init__", refuse)
        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        plots = tmp_path / "plots"
        assert cli.main(["analyze", "--bundle", str(tmp_path / "bundle"), "--out",
                         str(tmp_path / "r.json"), "--plots", str(plots)]) == 0
        assert len(list(plots.iterdir())) == layers * 2 * 4
        assert len(calls) == layers  # one per slab, for the reports and the charts

    def test_plots_take_one_spectrum_pass_per_layer(self, tmp_path, monkeypatch):
        layers = 3
        values = np.random.default_rng(10).standard_normal((layers, 2, 2, 32))
        write_bundle(KernelBundle("pass", values), tmp_path / "bundle")
        spectra, slabs = spectrobe.spectral.magnitude_spectra, []

        def counted(values):
            slabs.append(values.shape)
            return spectra(values)

        for module in (spectrobe.analysis, cli):
            if hasattr(module, "magnitude_spectra"):
                monkeypatch.setattr(module, "magnitude_spectra", counted)
        assert cli.main(["analyze", "--bundle", str(tmp_path / "bundle"), "--out",
                         str(tmp_path / "r.json"), "--plots",
                         str(tmp_path / "plots")]) == 0
        assert slabs == [(2, 2, 32)] * layers

    def test_plots_hold_no_layer_spectra_during_the_next_fft(self, tmp_path,
                                                              monkeypatch):
        # a slab's magnitudes are as large as the float32 slab itself
        spectra, refs = spectrobe.analysis.magnitude_spectra, []

        def tracked(values):
            assert [ref() for ref in refs] == [None] * len(refs)
            freqs, mags = spectra(values)
            refs.append(weakref.ref(mags))
            return freqs, mags

        monkeypatch.setattr(spectrobe.analysis, "magnitude_spectra", tracked)
        values = np.random.default_rng(11).standard_normal((3, 2, 2, 32))
        write_bundle(KernelBundle("alive", values), tmp_path / "bundle")
        assert cli.main(["analyze", "--bundle", str(tmp_path / "bundle"), "--out",
                         str(tmp_path / "r.json"), "--plots",
                         str(tmp_path / "plots")]) == 0
        assert len(refs) == 3

    def test_plot_builds_no_one_kernel_spectrum(self, band_bundle_dir, tmp_path,
                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-kernel Spectrum was built")

        for module in (spectrobe.spectral, cli):
            if hasattr(module, "compute_spectrum"):
                monkeypatch.setattr(module, "compute_spectrum", refuse)
        monkeypatch.setattr(spectrobe.spectral.Spectrum, "__post_init__", refuse)
        out = tmp_path / "k.svg"
        assert cli.main(["plot", "--bundle", str(band_bundle_dir), "--layer", "1",
                         "--direction", "backward", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_failed_plots_leave_no_report(self, band_bundle_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        plots = tmp_path / "charts"
        plots.write_text("a file where the chart directory should go")
        rc = cli.main([
            "analyze", "--bundle", str(band_bundle_dir), "--out", str(out),
            "--plots", str(plots),
        ])
        assert rc == 1
        assert str(plots) in capsys.readouterr().err
        assert not out.exists()

    def test_config_override_changes_the_verdict(self, impulse_bundle_dir, tmp_path):
        out = tmp_path / "report.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sc_high_bound": 0.2}))
        assert cli.main(
            ["analyze", "--bundle", str(impulse_bundle_dir), "--out", str(out)]
        ) == 0
        default_verdict = json.loads(out.read_text())
        assert cli.main([
            "analyze", "--bundle", str(impulse_bundle_dir), "--out", str(out),
            "--config", str(cfg),
        ]) == 0
        overridden = json.loads(out.read_text())
        by_centroid = lambda d: d["layers"][0]["kernels"][0]["categorization"][
            "by_centroid"
        ]
        assert by_centroid(default_verdict) == "band_pass"
        assert by_centroid(overridden) == "high_pass"

    def test_bad_config_fails_cleanly(self, band_bundle_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery_knob": 3}))
        rc = cli.main([
            "analyze", "--bundle", str(band_bundle_dir),
            "--out", str(tmp_path / "r.json"), "--config", str(cfg),
        ])
        assert rc == 1
        assert "mystery_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [('{"shift_threshold": NaN}', "shift_threshold"),
         ('{"lhfr_low_pass_min": Infinity}', "lhfr_low_pass_min"),
         ('{"redundancy_cutoff": 1' + "0" * 400 + "}", "redundancy_cutoff")],
        ids=["nan", "infinity", "huge-int"],
    )
    def test_non_finite_config_fails_naming_the_key(self, band_bundle_dir, tmp_path,
                                                     capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = cli.main([
            "diff", "--before", str(band_bundle_dir), "--after", str(band_bundle_dir),
            "--out", str(tmp_path / "r.json"), "--config", str(cfg),
        ])
        assert rc == 1
        assert f"config key '{key}' must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("rel", ["../x.f32", "/etc/passwd"])
    def test_payload_path_escape(self, band_bundle_dir, tmp_path, capsys, rel):
        mpath = band_bundle_dir / "manifest.json"
        manifest = json.loads(mpath.read_text())
        victim = band_bundle_dir / manifest["kernels"][0]["path"]
        (band_bundle_dir.parent / "x.f32").write_bytes(victim.read_bytes())
        manifest["kernels"][0]["path"] = rel
        mpath.write_text(json.dumps(manifest))
        rc = cli.main(["analyze", "--bundle", str(band_bundle_dir),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "leaves the bundle directory" in capsys.readouterr().err

    def test_payload_path_naming_a_directory_exits_one(self, band_bundle_dir, tmp_path,
                                                      capsys):
        mpath = band_bundle_dir / "manifest.json"
        manifest = json.loads(mpath.read_text())
        (band_bundle_dir / "sub").mkdir()
        manifest["kernels"][0]["path"] = "sub"
        mpath.write_text(json.dumps(manifest))
        rc = cli.main(["analyze", "--bundle", str(band_bundle_dir),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert (f"{mpath}: kernels[0]: path 'sub': missing payload file"
                in capsys.readouterr().err)

    def test_payload_growing_while_read_exits_one(self, band_bundle_dir, tmp_path,
                                                  capsys, monkeypatch):
        # a concurrent writer appends to each payload after its size check
        check = spectrobe.io._check_payload

        def check_then_grow(path, count, where):
            check(path, count, where)
            with open(path, "ab") as f:
                f.write(b"\0" * 4)

        monkeypatch.setattr(spectrobe.io, "_check_payload", check_then_grow)
        out = tmp_path / "r.json"
        rc = cli.main(["analyze", "--bundle", str(band_bundle_dir), "--out", str(out)])
        assert rc == 1
        assert "changed size while being read" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [band_bundle_dir]

    def test_missing_bundle(self, tmp_path, capsys):
        rc = cli.main(
            ["analyze", "--bundle", str(tmp_path / "ghost"), "--out",
             str(tmp_path / "r.json")]
        )
        assert rc == 1
        assert "file not found" in capsys.readouterr().err


class TestDiff:
    def test_reports_shift(self, tmp_path):
        before = tmp_path / "before"
        after = tmp_path / "after"
        assert cli.main(["synth", "--class", "low", "--cutoff", "0.03",
                         "--length", "64", "--out", str(before)]) == 0
        assert cli.main(["synth", "--class", "high", "--cutoff", "0.46",
                         "--length", "64", "--out", str(after)]) == 0
        out = tmp_path / "shift.json"
        rc = cli.main(["diff", "--before", str(before), "--after", str(after),
                       "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["report"] == "shift"
        assert data["flagged_early_layers"] == [1]

    def test_topology_mismatch(self, band_bundle_dir, tmp_path, capsys):
        other = tmp_path / "longer"
        assert cli.main(["synth", "--class", "band", "--cutoff", "0.2",
                         "--cutoff-high", "0.3", "--length", "128",
                         "--out", str(other)]) == 0
        rc = cli.main(["diff", "--before", str(band_bundle_dir),
                       "--after", str(other), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "lengths differ" in capsys.readouterr().err

    def test_topology_fault_names_both_bundles(self, tmp_path, capsys):
        paths = []
        for layers in (2, 3):
            paths.append(tmp_path / f"layers{layers}")
            write_bundle(KernelBundle("m", np.ones((layers, 2, 1, 16))), paths[-1])
        rc = cli.main(["diff", "--before", str(paths[0]), "--after", str(paths[1]),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"spectrobe: error: {paths[0]} vs {paths[1]}: "
            "layer counts differ: 2 vs 3\n")
        assert not (tmp_path / "r.json").exists()


class TestComplementaryAndRedundancy:
    def test_complementary_prints_json(self, band_bundle_dir, capsys):
        rc = cli.main(["complementary", "--bundle", str(band_bundle_dir)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["report"] == "complementarity"
        assert data["layers"][0]["strength"] == "none"

    def test_complementary_refuses_multi_kernel(self, multi_kernel_bundle_dir,
                                                capsys):
        rc = cli.main(["complementary", "--bundle", str(multi_kernel_bundle_dir)])
        assert rc == 1
        assert "analyze_redundancy" in capsys.readouterr().err

    def test_redundancy_prints_json(self, multi_kernel_bundle_dir, capsys):
        rc = cli.main(["redundancy", "--bundle", str(multi_kernel_bundle_dir)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["report"] == "redundancy"
        assert len(data["pairs"]) == 2

    def test_redundancy_refuses_single_kernel(self, band_bundle_dir, capsys):
        rc = cli.main(["redundancy", "--bundle", str(band_bundle_dir)])
        assert rc == 1
        assert "single kernel" in capsys.readouterr().err

    def test_redundancy_reports_and_applies_the_config_cutoff(
        self, multi_kernel_bundle_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"redundancy_cutoff": 0.5}))
        rc = cli.main(["redundancy", "--bundle", str(multi_kernel_bundle_dir),
                       "--config", str(cfg)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cutoff"] == 0.5
        similarities = [pair["similarity"] for pair in data["pairs"]]
        # the cutoff decides here: the default 0.95 would flag none of these
        assert all(0.5 <= s < 0.95 for s in similarities)
        assert all(pair["redundant"] for pair in data["pairs"])


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--bundle", "{bundle}", "--out", "{tmp}/r.json"],
        ["diff", "--before", "{bundle}", "--after", "{bundle}",
         "--out", "{tmp}/r.json"],
        ["complementary", "--bundle", "{bundle}"],
        ["redundancy", "--bundle", "{bundle}"],
    ],
    ids=lambda command: command[0],
)
def test_every_analysis_command_reads_the_config(command, band_bundle_dir,
                                                 tmp_path, capsys):
    argv = [arg.format(bundle=band_bundle_dir, tmp=tmp_path) for arg in command]
    # the probe's separability tolerance is fixed, not a config key
    for key in ("no_such_threshold", "separability_tolerance"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        assert cli.main(argv + ["--config", str(cfg)]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--bundle", "{bundle}", "--out", "{tmp}/r.json"],
        ["diff", "--before", "{bundle}", "--after", "{bundle}",
         "--out", "{tmp}/r.json"],
        ["complementary", "--bundle", "{bundle}"],
        ["redundancy", "--bundle", "{multi}"],
        ["probe", "--train", "{pairs}", "--eval", "{pairs}", "--task", "distance",
         "--out", "{tmp}/r.json"],
    ],
    ids=lambda command: command[0],
)
def test_every_report_command_writes_its_report_once(
    command, band_bundle_dir, multi_kernel_bundle_dir, pair_dataset_dir,
    tmp_path, capsys, monkeypatch
):
    calls = []

    def counted(report, path=None):
        calls.append(path)
        return spectrobe.emit_report(report, path)

    monkeypatch.setattr(cli, "emit_report", counted)
    argv = [arg.format(bundle=band_bundle_dir, multi=multi_kernel_bundle_dir,
                       pairs=pair_dataset_dir, tmp=tmp_path) for arg in command]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    report = tmp_path / "r.json"
    assert len(calls) == 1
    if "--out" in command:
        assert stdout == ""
        assert json.loads(report.read_text())["report"]
    else:
        assert not report.exists()
        assert json.loads(stdout)["report"]


@pytest.mark.parametrize(
    "argv, fault",
    [
        (["plot", "--bundle", "{band}", "--layer", "99", "--direction", "forward",
          "--out", "{tmp}/c.svg"], "{band}: layer 99 not in bundle (1..1)"),
        (["plot", "--bundle", "{multi}", "--layer", "1", "--direction", "forward",
          "--kernel-index", "2", "--out", "{tmp}/c.svg"],
         "{multi}: kernel index 2 not in bundle (0..1)"),
        (["plot", "--bundle", "{zero}", "--layer", "1", "--direction", "backward",
          "--out", "{tmp}/c.svg"],
         "{zero}: all-zero spectrum, or one whose total overflows, cannot be "
         "summarized"),
        (["complementary", "--bundle", "{multi}"],
         "{multi}: layer 1 has several kernels per direction; complementarity "
         "needs exactly one, use analyze_redundancy"),
        (["redundancy", "--bundle", "{band}"],
         "{band}: bundle has a single kernel per direction; nothing to compare"),
        (["materialize", "--params", "{params}", "--length", "16", "--out", "{tmp}/c"],
         "{params}: layer 1 backward kernel 0: value 3.93469e+307 at element 0 "
         "overflows float32"),
    ],
    ids=["plot-layer", "plot-kernel-index", "plot-all-zero",
         "complementary-multi-kernel", "redundancy-single-kernel",
         "materialize-float32-overflow"],
)
def test_one_input_faults_name_their_input(argv, fault, band_bundle_dir,
                                           multi_kernel_bundle_dir, params_file,
                                           tmp_path, capsys):
    zero = tmp_path / "zero-bundle"
    write_bundle(KernelBundle("zero", np.zeros((1, 2, 1, 16))), zero)
    doc = json.loads(params_file.read_text())
    doc["layers"][0]["backward"][0] = {
        "modes": [{"a": [-1.0, 0.0], "c": [1e308, 0.0]}], "step": 0.5}
    params_file.write_text(json.dumps(doc))
    names = dict(band=band_bundle_dir, multi=multi_kernel_bundle_dir, zero=zero,
                 params=params_file, tmp=tmp_path)
    assert cli.main([arg.format(**names) for arg in argv]) == 1
    assert capsys.readouterr().err == f"spectrobe: error: {fault.format(**names)}\n"
    assert not (tmp_path / "c.svg").exists() and not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv, fault", [
    # the longest name the file system takes: no fault at all
    (["analyze", "--bundle", "{bundle}", "--out", "{long}"], None),
    (["analyze", "--bundle", "{bundle}", "--out", "{dir}"],
     "[Errno 21] Is a directory: '{dir}'"),
    # a regular file where a directory must be is not a directory, not an
    # output that exists already
    (["analyze", "--bundle", "{bundle}", "--out", "{file}/r.json"],
     "[Errno 20] Not a directory: '{file}/r.json'"),
    (["analyze", "--bundle", "{bundle}", "--out", "{tmp}/r.json", "--plots", "{file}"],
     "[Errno 20] Not a directory: '{file}/layer001_forward_k00.svg'"),
    (["synth", "--class", "low", "--cutoff", "0.1", "--length", "16", "--out", "{file}"],
     "[Errno 20] Not a directory: '{file}/layer001_forward_k00.f32'"),
], ids=["longest-name", "existing-directory", "report-under-a-file", "plots-at-a-file",
        "bundle-at-a-file"])
def test_output_faults_name_the_output(argv, fault, band_bundle_dir, tmp_path,
                                       capsys):
    longest = "r" * os.pathconf(tmp_path, "PC_NAME_MAX")
    names = dict(bundle=band_bundle_dir, tmp=tmp_path, dir=tmp_path / "taken",
                 file=tmp_path / "f", long=tmp_path / longest)
    names["dir"].mkdir()
    names["file"].write_text("")
    code = cli.main([arg.format(**names) for arg in argv])
    err = capsys.readouterr().err
    assert not [entry for entry in os.listdir(tmp_path) if entry.endswith(".tmp")]
    assert names["file"].read_text() == ""
    if fault is None:
        assert code == 0 and json.loads(names["long"].read_text())["report"] == "analysis"
    else:
        assert code == 1 and err == f"spectrobe: error: {fault.format(**names)}\n"


# cli.main in a child whose hook swaps a file for a FIFO right after the
# named check has passed it as a regular file; a read that waited on the
# FIFO would hang the child until the parent's timeout
_SWAPPED_FOR_A_FIFO = """
import os, sys
from pathlib import Path
import spectrobe.cli as cli, spectrobe.io as io

owner, name, target = {owner}, {name!r}, Path({target!r})
check = getattr(owner, name)

def swapping(path, *args):
    passed = check(path, *args)
    if Path(path) == target:
        os.unlink(target)
        os.mkfifo(target)
    return passed

setattr(owner, name, swapping)
sys.exit(cli.main({argv!r}))
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
@pytest.mark.parametrize("owner, name, rel, fault", [
    ("io", "_check_payload", "layer001_backward_k00.f32", "changed size while being read"),
    ("Path", "is_file", "manifest.json", "invalid JSON (Expecting value"),
], ids=["payload", "manifest"])
def test_no_read_waits_on_a_fifo(owner, name, rel, fault, band_bundle_dir, tmp_path):
    target = band_bundle_dir / rel
    argv = ["analyze", "--bundle", str(band_bundle_dir), "--out", str(tmp_path / "r.json")]
    code = _SWAPPED_FOR_A_FIFO.format(owner=owner, name=name, target=str(target),
                                      argv=argv)
    src = str(Path(spectrobe.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"spectrobe: error: {target}: {fault}")
    assert not (tmp_path / "r.json").exists()


_PATH_FLAGS = {"--bundle", "--before", "--after", "--out", "--plots", "--config",
               "--params", "--train", "--eval"}
_ARGVS = [
    ["analyze", "--bundle", "b", "--out", "o", "--plots", "p", "--config", "c"],
    ["diff", "--before", "b", "--after", "a", "--out", "o", "--config", "c"],
    ["complementary", "--bundle", "b", "--config", "c"],
    ["redundancy", "--bundle", "b", "--config", "c"],
    ["materialize", "--params", "p", "--length", "8", "--out", "o"],
    ["synth", "--class", "low", "--cutoff", "0.1", "--length", "8", "--out", "o"],
    ["probe", "--train", "t", "--eval", "e", "--task", "distance", "--out", "o"],
    ["plot", "--bundle", "b", "--layer", "1", "--direction", "forward", "--out", "o"],
]


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=f"{argv[0]} {flag}")
    for argv in _ARGVS for flag in argv if flag in _PATH_FLAGS
])
def test_empty_path_arguments_are_refused(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where an empty path would lead
    i = argv.index(flag) + 1
    assert cli.main([*argv[:i], "", *argv[i + 1:]]) == 1
    assert capsys.readouterr().err.startswith(
        f"spectrobe {argv[0]}: error: argument {flag}: empty path\nusage: ")
    assert not any(tmp_path.iterdir())


class TestMaterialize:
    def test_writes_matching_bundle(self, params_file, tmp_path):
        from spectrobe import read_s4d_params, materialize_s4d

        out = tmp_path / "ssm-bundle"
        rc = cli.main(["materialize", "--params", str(params_file),
                       "--length", "48", "--out", str(out)])
        assert rc == 0
        bundle = read_bundle(out)
        assert bundle.model_tag == "ssm"
        _, params = read_s4d_params(params_file)
        expected = materialize_s4d(params[0, 0, 0], 48)
        stored = bundle.layers[1][FWD][0].values
        np.testing.assert_array_equal(
            stored, expected.values.astype("<f4").astype(np.float64)
        )

    def test_unstable_params_fail(self, tmp_path, capsys):
        doc = {
            "model_tag": "bad",
            "step": 0.1,
            "layers": [
                {
                    "layer": 1,
                    "forward": [{"modes": [{"a": [0.5, 0.0], "c": [1.0, 0.0]}]}],
                    "backward": [{"modes": [{"a": [-1.0, 0.0], "c": [1.0, 0.0]}]}],
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["materialize", "--params", str(path),
                       "--length", "16", "--out", str(tmp_path / "b")])
        assert rc == 1
        assert "real part" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch, expected",
        [
            (lambda doc: doc["layers"][0].update(forward=[5]),
             "layers[0].forward[0]: expected a JSON object"),
            (lambda doc: doc["layers"][0]["backward"][0].update(step=[0.1]),
             "layers[0].backward[0]: field 'step' must be a number"),
            (lambda doc: doc["layers"][0]["forward"][0].update(step=True),
             "layers[0].forward[0]: field 'step' must be a number"),
            (lambda doc: doc["layers"][0]["forward"][0].update(step="0.1"),
             "layers[0].forward[0]: field 'step' must be a number"),
            (lambda doc: doc.update(step=True),
             "params.json: field 'step' must be a number"),
            (lambda doc: doc["layers"][0]["forward"][0].update(step=10**400),
             "layers[0].forward[0]: field 'step' must be a finite number"),
            (lambda doc: doc["layers"][0]["backward"][0].update(step=float("inf")),
             "layers[0].backward[0]: field 'step' must be a finite number"),
            (lambda doc: doc.update(step="<1e400>"),
             "params.json: field 'step' must be a finite number"),
            (lambda doc: doc["layers"][0]["forward"][0]["modes"][0].update(
                c=[10**400, 0.0]),
             "layers[0].forward[0].modes[0]: field 'c' must be a finite number"),
        ],
        ids=["entry-not-object", "list-step", "bool-step", "string-step",
             "bool-file-step", "huge-int-step", "infinity-step",
             "1e400-file-step", "huge-int-mode-part"],
    )
    def test_malformed_params_exit_one_naming_the_entry(self, params_file, tmp_path,
                                                        capsys, patch, expected):
        doc = json.loads(params_file.read_text())
        patch(doc)
        # json.dumps cannot write 1e400 itself; the marker stands in for it
        params_file.write_text(json.dumps(doc).replace('"<1e400>"', "1e400"))
        rc = cli.main(["materialize", "--params", str(params_file),
                       "--length", "16", "--out", str(tmp_path / "b")])
        assert rc == 1
        assert expected in capsys.readouterr().err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "mode, step, length, expected",
        [
            ({"a": [-1.0, 0.0], "c": [1e308, 0.0]}, 0.5, 16,
             "layer 1 backward kernel 0: value 3.93469e+307 at element 0 "
             "overflows float32"),
            ({"a": [-1e308, 0.0], "c": [1.0, 0.0]}, 10.0, 16,
             "params.json: layers[0].backward[0]: kernel overflows float64"),
            # step * pole is finite, so the file reads; the kernel's
            # blocked powers overflow only at this length
            ({"a": [-1e307, 0.0], "c": [1.0, 0.0]}, 10.0, 16384,
             "params.json: layer 1 backward kernel 0 at length 16384: "
             "kernel has a non-finite value at index 0"),
        ],
        ids=["beyond-float32", "beyond-float64", "beyond-float64-at-length"],
    )
    def test_overflow_exits_one_naming_the_kernel(self, params_file, tmp_path, capsys,
                                                  mode, step, length, expected):
        doc = json.loads(params_file.read_text())
        doc["layers"][0]["backward"][0] = {"modes": [mode], "step": step}
        params_file.write_text(json.dumps(doc))
        out = tmp_path / "b"
        rc = cli.main(["materialize", "--params", str(params_file),
                       "--length", str(length), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert expected in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch, refusal",
        [
            (lambda layers: layers.append(copy.deepcopy(layers[0])),
             "layer 1 forward kernel 0 is listed twice"),
            (lambda layers: layers.append(dict(copy.deepcopy(layers[0]), layer=3)),
             "layer 2 forward kernel 0 is missing"),
            (lambda layers: layers[0].update(layer=0),
             "layer 0 forward kernel 0 is out of range"),
            (lambda layers: layers[0]["forward"].append(layers[0]["forward"][0]),
             "layer 1 backward kernel 1 is missing"),
        ],
        ids=["repeated-layer", "layer-gap", "layer-zero", "uneven-lists"],
    )
    def test_bad_grid_is_refused_before_any_kernel(self, params_file, tmp_path,
                                                   capsys, monkeypatch, patch,
                                                   refusal):
        made = []
        real = cli.materialize_s4d
        monkeypatch.setattr(cli, "materialize_s4d",
                            lambda *args: made.append(args) or real(*args))
        doc = json.loads(params_file.read_text())
        patch(doc["layers"])
        params_file.write_text(json.dumps(doc))
        rc = cli.main(["materialize", "--params", str(params_file),
                       "--length", "16", "--out", str(tmp_path / "b")])
        assert rc == 1
        assert f"{params_file}: {refusal}\n" in capsys.readouterr().err
        assert made == []

    @pytest.mark.parametrize("length", [1, 0, -3])
    def test_length_below_two_exits_one_naming_the_kernel(self, params_file, tmp_path,
                                                          capsys, length):
        out = tmp_path / "b"
        rc = cli.main(["materialize", "--params", str(params_file),
                       "--length", str(length), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"spectrobe: error: {params_file}: layer 1 forward kernel 0 at length "
            f"{length}: length must be >= 2, got {length}\n")
        assert not out.exists()


class TestSynth:
    def test_band_bundle_is_readable_and_paired(self, band_bundle_dir):
        bundle = read_bundle(band_bundle_dir)
        assert bundle.model_tag == "synth-band"
        assert bundle.layer_count == 1
        assert bundle.kernel_count_per_direction == 1
        np.testing.assert_array_equal(
            bundle.layers[1][FWD][0].values, bundle.layers[1][BWD][0].values
        )

    def test_band_needs_upper_edge(self, tmp_path, capsys):
        rc = cli.main(["synth", "--class", "band", "--cutoff", "0.2",
                       "--length", "64", "--out", str(tmp_path / "b")])
        assert rc == 1
        assert "cutoff_high" in capsys.readouterr().err

    def test_cutoff_range_is_enforced(self, tmp_path):
        rc = cli.main(["synth", "--class", "low", "--cutoff", "0.7",
                       "--length", "64", "--out", str(tmp_path / "b")])
        assert rc == 1

    def test_class_choices_are_closed(self, tmp_path):
        rc = cli.main(["synth", "--class", "notch", "--cutoff", "0.2",
                       "--length", "64", "--out", str(tmp_path / "b")])
        assert rc == 1


class TestProbe:
    def test_distance_task_end_to_end(self, pair_dataset_dir, tmp_path):
        out = tmp_path / "probe.json"
        rc = cli.main([
            "probe", "--train", str(pair_dataset_dir),
            "--eval", str(pair_dataset_dir), "--task", "distance",
            "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["report"] == "probe"
        assert data["converged"] is True
        assert data["train_skipped"] == 1
        assert data["eval_skipped"] == 1
        assert data["mean_accuracy"] == 1.0
        assert data["per_label_accuracy"] == {"2": 1.0, "3": 1.0}

    def test_siblings_task(self, tmp_path):
        reps = {
            "a": np.array([0.0]),
            "b": np.array([1.0]),
            "c": np.array([8.0]),
        }
        pairs = [("a", "b", "yes"), ("a", "c", "no"), ("b", "c", "no")]
        data_dir = tmp_path / "sib"
        write_pair_dataset(reps, pairs, data_dir)
        out = tmp_path / "probe.json"
        rc = cli.main(["probe", "--train", str(data_dir), "--eval", str(data_dir),
                       "--task", "siblings", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["task"] == "siblings"

    def test_huge_vectors_are_probed(self, tmp_path):
        # near 1e30 the LP coefficients once made the solver refuse the model
        reps = {k: np.array([v * 1e30]) for k, v in zip("abc", (0.0, 1.0, 2.0))}
        pairs = [("a", "b", "yes"), ("b", "c", "yes"), ("a", "c", "no"),
                 ("c", "a", "no")]
        data_dir = tmp_path / "huge"
        write_pair_dataset(reps, pairs, data_dir)
        out = tmp_path / "probe.json"
        rc = cli.main(["probe", "--train", str(data_dir), "--eval", str(data_dir),
                       "--task", "siblings", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["cluster_count"] == 3
        assert data["mean_accuracy"] == 1.0

    def test_a_singular_basis_is_an_internal_error(self, tmp_path, monkeypatch, capsys):
        # the points (2, 3), (3, 0) labeled yes and (0, 3), (2, 1) labeled
        # no: neither a box gap nor a centroid gap settles one of the
        # merges, so the LP runs; numpy's LinAlgError is a ValueError,
        # which would blame the input
        reps = {k: np.array([v]) for k, v in zip("abcd", (0.0, 1.0, 2.0, 3.0))}
        pairs = [("c", "d", "yes"), ("d", "a", "yes"), ("a", "d", "no"), ("c", "b", "no")]
        data_dir = tmp_path / "four"
        write_pair_dataset(reps, pairs, data_dir)

        def singular(block):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        rc = cli.main(["probe", "--train", str(data_dir), "--eval", str(data_dir),
                       "--task", "siblings", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "spectrobe: internal error: RuntimeError('separability program "
            "failed: Singular matrix')\n")
        assert not (tmp_path / "r.json").exists()

    def test_an_uncertified_direction_is_an_internal_error(self, tmp_path, monkeypatch,
                                                           capsys):
        # the dataset of test_a_singular_basis_is_an_internal_error, whose
        # merges reach the LP, and a solver that claims a margin with w = 0
        reps = {k: np.array([v]) for k, v in zip("abcd", (0.0, 1.0, 2.0, 3.0))}
        pairs = [("c", "d", "yes"), ("d", "a", "yes"), ("a", "d", "no"), ("c", "b", "no")]
        data_dir = tmp_path / "four"
        write_pair_dataset(reps, pairs, data_dir)
        monkeypatch.setattr(spectrobe.probe, "_max_margin", lambda za, zb, start: (
            1.0, np.zeros(za.shape[1]), np.ones(len(za)), np.ones(len(zb)), None))
        rc = cli.main(["probe", "--train", str(data_dir), "--eval", str(data_dir),
                       "--task", "siblings", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "spectrobe: internal error: RuntimeError('separability program "
            "failed: its w misses its margin 1.0')\n")
        assert not (tmp_path / "r.json").exists()

    def test_coordinates_of_far_apart_scales_are_probed(self, tmp_path):
        # float32 coordinates scaled by 2^-40..1 each: rows of the solver's
        # frame far below its pivot tolerance once ended it on an infeasible
        # basis, and the run exited 2
        rng = np.random.default_rng(1220)
        n, d = rng.integers(4, 40), rng.integers(2, 8)
        x = (rng.normal(size=(n, d)) * 2.0 ** rng.integers(-40, 1, d)).astype(np.float32)
        labels = rng.integers(0, 2, n)
        reps = {f"t{i}": row for i, row in enumerate(x)}
        reps["z"] = np.zeros(d, np.float32)
        data_dir = tmp_path / "scaled"
        write_pair_dataset(reps, [(f"t{i}", "z", "ab"[k]) for i, k in enumerate(labels)],
                           data_dir)
        out = tmp_path / "probe.json"
        rc = cli.main(["probe", "--train", str(data_dir), "--eval", str(data_dir),
                       "--task", "siblings", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["train_points"] == n
        assert data["mean_accuracy"] == 1.0

    def test_label_rules_are_enforced(self, tmp_path, capsys):
        reps = {"a": np.array([0.0]), "b": np.array([1.0])}
        pairs = [("a", "b", "nope")]
        data_dir = tmp_path / "badlabels"
        write_pair_dataset(reps, pairs, data_dir)
        rc = cli.main(["probe", "--train", str(data_dir), "--eval", str(data_dir),
                       "--task", "distance", "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "train_pairs, eval_pairs, eval_dim, fault",
        [
            ([("a", "b", "2"), ("a", "b", "x y")], [("a", "b", "2")], 1,
             "{train}: pairs[1]: label 'x y' is not an integer tree distance"),
            ([("a", "b", "2")], [("a", "b", "3"), ("a", "b", "x y")], 1,
             "{eval}: pairs[1]: label 'x y' is not an integer tree distance"),
            ([("a", "b", "2")], [("b", "a", "1")], 1,
             "{eval}: pairs[0]: tree distance must be >= 2, got 1"),
            ([("a", "b", "7")], [("a", "b", "2")], 1, "{train}: dataset is empty"),
            ([("a", "b", "2")], [("a", "b", "9")], 1, "{eval}: held-out set is empty"),
            ([("a", "b", "2")], [("a", "b", "2")], 2,
             "{eval}: query must be a vector of dimension 1"),
            # train is read and built before eval is read
            ([("a", "b", "x")], None, 1,
             "{train}: pairs[0]: label 'x' is not an integer tree distance"),
            # a reader names its own file, once
            ([("a", "b", "2")], None, 1, "{eval}/manifest.json: file not found"),
        ],
        ids=["train-label", "eval-label", "eval-distance", "train-empty",
             "eval-empty", "eval-dimension", "train-first", "eval-unread"],
    )
    def test_faults_name_their_dataset_and_pair(self, tmp_path, capsys, train_pairs,
                                                eval_pairs, eval_dim, fault):
        dirs = {"train": tmp_path / "train", "eval": tmp_path / "eval"}
        write_pair_dataset({"a": np.zeros(1), "b": np.ones(1)}, train_pairs,
                           dirs["train"])
        if eval_pairs is not None:
            write_pair_dataset({"a": np.zeros(eval_dim), "b": np.ones(eval_dim)},
                               eval_pairs, dirs["eval"])
        rc = cli.main(["probe", "--train", str(dirs["train"]),
                       "--eval", str(dirs["eval"]), "--task", "distance",
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"spectrobe: error: {fault.format(**dirs)}\n"

    def test_task_choices_are_closed(self, pair_dataset_dir, tmp_path):
        rc = cli.main(["probe", "--train", str(pair_dataset_dir),
                       "--eval", str(pair_dataset_dir), "--task", "parsing",
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1


class TestPlot:
    def test_writes_svg(self, band_bundle_dir, tmp_path):
        out = tmp_path / "chart.svg"
        rc = cli.main(["plot", "--bundle", str(band_bundle_dir), "--layer", "1",
                       "--direction", "forward", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<svg")

    def test_reruns_are_byte_identical(self, band_bundle_dir, tmp_path):
        one = tmp_path / "one.svg"
        two = tmp_path / "two.svg"
        for out in (one, two):
            assert cli.main(["plot", "--bundle", str(band_bundle_dir),
                             "--layer", "1", "--direction", "backward",
                             "--out", str(out)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_unknown_layer(self, band_bundle_dir, tmp_path, capsys):
        rc = cli.main(["plot", "--bundle", str(band_bundle_dir), "--layer", "99",
                       "--direction", "forward", "--out", str(tmp_path / "c.svg")])
        assert rc == 1
        assert "layer 99" in capsys.readouterr().err

    def test_kernel_index_selects_the_kernel(self, multi_kernel_bundle_dir,
                                             tmp_path):
        charts = []
        for index in ("0", "1"):
            out = tmp_path / f"k{index}.svg"
            assert cli.main(["plot", "--bundle", str(multi_kernel_bundle_dir),
                             "--layer", "1", "--direction", "forward",
                             "--kernel-index", index, "--out", str(out)]) == 0
            charts.append(out.read_text())
        assert charts[1].startswith("<svg")
        assert charts[0] != charts[1]

    @pytest.mark.parametrize("index", ["2", "-1"])
    def test_kernel_index_out_of_range(self, multi_kernel_bundle_dir, tmp_path,
                                       capsys, index):
        rc = cli.main(["plot", "--bundle", str(multi_kernel_bundle_dir),
                       "--layer", "1", "--direction", "forward",
                       "--kernel-index", index, "--out", str(tmp_path / "c.svg")])
        assert rc == 1
        assert f"kernel index {index} not in bundle (0..1)" in capsys.readouterr().err
        assert not (tmp_path / "c.svg").exists()

    def test_direction_choices_are_closed(self, band_bundle_dir, tmp_path):
        rc = cli.main(["plot", "--bundle", str(band_bundle_dir), "--layer", "1",
                       "--direction", "sideways", "--out", str(tmp_path / "c.svg")])
        assert rc == 1


class TestHostileFiles:
    """Every JSON input and the pair list exit 1 naming the file."""

    @pytest.fixture
    def argv_for(self, band_bundle_dir, pair_dataset_dir, tmp_path):
        """argv reading the given kind of file, and the path it reads."""
        out = str(tmp_path / "out")

        def argv(kind):
            if kind == "config":
                path = tmp_path / "config.json"
                return ["analyze", "--bundle", str(band_bundle_dir), "--out", out,
                        "--config", str(path)], path
            if kind == "params":
                path = tmp_path / "params.json"
                return ["materialize", "--params", str(path), "--length", "8",
                        "--out", out], path
            if kind == "bundle manifest":
                return (["analyze", "--bundle", str(band_bundle_dir), "--out", out],
                        band_bundle_dir / "manifest.json")
            return (["probe", "--train", str(pair_dataset_dir), "--eval",
                     str(pair_dataset_dir), "--task", "distance", "--out", out],
                    pair_dataset_dir / kind)

        return argv

    @pytest.mark.parametrize(
        "kind", ["config", "params", "bundle manifest", "manifest.json"])
    def test_deep_nesting_exits_one(self, argv_for, kind, capsys):
        argv, path = argv_for(kind)
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(argv) == 1
        assert f"{path}: JSON nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind", ["config", "params", "bundle manifest", "manifest.json", "pairs.txt"])
    def test_non_utf8_exits_one_naming_the_file(self, argv_for, kind, capsys):
        argv, path = argv_for(kind)
        path.write_bytes(b'{"model_tag": "\xff"}')
        assert cli.main(argv) == 1
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("key, missing", [
        ("layer", "layer 1 backward kernel 0"),
        ("kernel_index", "layer 1 forward kernel 1"),
    ])
    def test_huge_claimed_slot_names_a_missing_one(self, argv_for, key, missing,
                                                   capsys):
        argv, path = argv_for("bundle manifest")
        manifest = json.loads(path.read_text())
        manifest["kernels"][1][key] = 10**9
        path.write_text(json.dumps(manifest))
        start = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert f"{path}: {missing} is missing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, hostile, expected",
        [
            ("config", lambda path: path.write_text(json.dumps({"k" * 100_000: 1})),
             ": unknown config keys: ['kkk"),
            ("config",
             lambda path: path.write_text(json.dumps({"sc_low_bound": "v" * 100_000})),
             ": config key 'sc_low_bound' must be a number, got 'vvv"),
            ("params",
             lambda path: path.write_text(json.dumps({"model_tag": "m",
                                                      "step": "9" * 100_000})),
             ": field 'step' must be a number, got '999"),
            ("pairs.txt", lambda path: path.write_text("a" * 100_000 + "\n"),
             ":1: expected 'id_i id_j label', got 'aaa"),
            ("manifest.json",
             lambda path: path.write_text(json.dumps(
                 {"count": 1, "dimension": 2, "token_ids": ["z" * 100_000 + " a"]})),
             ": token id 'zzz"),
        ],
        ids=["config-key", "config-value", "params-number", "pairs-line", "token-id"],
    )
    def test_hostile_values_are_quoted_short(self, argv_for, kind, hostile,
                                             expected, capsys):
        argv, path = argv_for(kind)
        hostile(path)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"{path}{expected}" in err
        assert len(err) < 300 + len(str(path))

    @pytest.mark.parametrize("length", [3_000, 100_000])
    def test_hostile_payload_path_names_the_entry(self, argv_for, length, capsys):
        """A missing payload path, or one too long for the file system, is
        refused naming its manifest entry, with the path quoted short."""
        argv, path = argv_for("bundle manifest")
        manifest = json.loads(path.read_text())
        manifest["kernels"][0]["path"] = "a" * length
        path.write_text(json.dumps(manifest))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"{path}: kernels[0]: path 'aaa" in err
        assert len(err) < 300 + len(str(path))

    def test_chart_titles_parse_as_xml(self, band_bundle_dir, tmp_path):
        bundle = read_bundle(band_bundle_dir)
        write_bundle(KernelBundle("tag\x01", bundle.values), tmp_path / "b")
        svg = tmp_path / "k.svg"
        assert cli.main(["plot", "--bundle", str(tmp_path / "b"), "--layer", "1",
                         "--direction", "forward", "--out", str(svg)]) == 0
        assert cli.main(["analyze", "--bundle", str(tmp_path / "b"),
                         "--out", str(tmp_path / "r.json"),
                         "--plots", str(tmp_path / "plots")]) == 0
        for path in [svg, *(tmp_path / "plots").iterdir()]:
            root = ElementTree.parse(path).getroot()
            texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
            assert any(text.startswith("tag\ufffd layer 1") for text in texts)


class TestExitCodes:
    def test_no_arguments(self):
        assert cli.main([]) == 1

    def test_unknown_subcommand(self):
        assert cli.main(["transmogrify"]) == 1

    def test_unknown_flag(self, band_bundle_dir, tmp_path):
        rc = cli.main(["analyze", "--bundle", str(band_bundle_dir),
                       "--out", str(tmp_path / "r.json"), "--loud"])
        assert rc == 1

    def test_missing_required_flag(self, band_bundle_dir):
        assert cli.main(["analyze", "--bundle", str(band_bundle_dir)]) == 1

    def test_import_does_not_load_scipy(self, tmp_path):
        # the probe solves its LPs itself: neither the import nor a probe
        # run whose overlapping labels need the solver loads scipy
        rng = np.random.default_rng(0)
        reps = {f"t{i}": rng.normal(size=2) + 0.3 * (i % 2) for i in range(80)}
        pairs = [(f"t{i}", f"t{i + 2}", "ab"[i % 2]) for i in range(78)]
        write_pair_dataset(reps, pairs, tmp_path / "pairs")
        src = str(Path(spectrobe.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = ["probe", "--train", str(tmp_path / "pairs"), "--eval",
                 str(tmp_path / "pairs"), "--task", "siblings",
                 "--out", str(tmp_path / "probe.json")]
        for code in ["import sys, spectrobe.cli; sys.exit('scipy' in sys.modules)",
                     f"import sys, spectrobe.cli as c; sys.exit(c.main({probe!r})"
                     " or 'scipy' in sys.modules)"]:
            proc = subprocess.run([sys.executable, "-c", code],
                                  env=dict(os.environ, PYTHONPATH=path))
            assert proc.returncode == 0

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out or True
        assert cli.main(["synth", "--help"]) == 0

    def test_usage_errors_go_to_stderr(self, capsys):
        cli.main(["bogus"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_key_errors_are_internal_errors(self, band_bundle_dir, tmp_path,
                                            monkeypatch, capsys):
        # no input reaches a KeyError, so one is a bug, not bad input
        monkeypatch.setattr(cli, "_analyzed_layers", lambda *args: {}["verdict"])
        rc = cli.main(["analyze", "--bundle", str(band_bundle_dir),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "internal error: KeyError('verdict')" in capsys.readouterr().err

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                     "(1000000000000,) and data type float64"),
         "spectrobe: error: ran out of memory: Unable to allocate 7.28 TiB for "
         "an array with shape (1000000000000,) and data type float64\n"),
        (MemoryError(), "spectrobe: error: ran out of memory\n"),
    ], ids=["numpy-text", "no-text"])
    def test_running_out_of_memory_exits_one(self, band_bundle_dir, tmp_path,
                                             monkeypatch, capsys, error, message):
        # an oversized input, not a bug; raised by a stand-in, since a real
        # oversized allocation could reach the OOM killer under overcommit
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "_analyzed_layers", exhausted)
        rc = cli.main(["analyze", "--bundle", str(band_bundle_dir),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "r.json").exists()

    def test_internal_errors_exit_two(self, band_bundle_dir, tmp_path,
                                      monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "_analyzed_layers", boom)
        rc = cli.main(["analyze", "--bundle", str(band_bundle_dir),
                       "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "internal error" in capsys.readouterr().err
