"""Self-check of the benchmark harness at tiny sizes.

Kept out of the repository's default test collection by its file name;
run it with

    python -m pytest -q bench/check_harness.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


def _runner(name, tmp_path, seed=3):
    plan = workloads.make(name, tmp_path / "work", seed, size="tiny")
    runner = run.Runner(plan, tmp_path / "work", run.child_env())
    run._capture_probe(runner)
    return runner


def test_benchmark_json_matches_the_harness():
    assert json.loads(run.MANIFEST.read_text()) == run.manifest()
    assert all(len(w["why"]) <= 200 for w in run.manifest()["workloads"])


def test_tiny_workloads_pass_their_checks_and_feed_every_layer_metric(tmp_path):
    seen = set()
    for name in [*run.WORKLOAD_NAMES, "checkpoint_suite"]:
        runner = _runner(name, tmp_path / name)
        runner.warm_pass()
        runner.cold_pass()
        tracer = spans.Tracer()
        with tracer.installed():
            runner.warm_pass()
        tracer.end_pass()
        assert runner.failed == 0, runner.problems
        assert runner.attempted == 3 * len(runner.plan.steps)
        metrics = tracer.pass_metrics(0)
        assert metrics["cli.main.calls"] == len(runner.plan.steps)
        seen |= {k for k, v in metrics.items() if v}
    # every per-layer metric but the separately measured ones comes from spans
    separate = {n for n, _ in run.PER_LAYER
                if n.startswith(("import.", "trace.")) or n.endswith(".peak_mb")}
    assert {n for n, _ in run.PER_LAYER} - separate <= seen


@pytest.mark.parametrize("trace", [False, True])
def test_a_whole_run_reports_every_metric(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    out = run.run_workload("probe_overlap", 1, 0.1, trace, size="tiny")
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    names = [n for n, *_ in (run.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    if trace:
        assert result["metrics"]["probe.run_directprobe.peak_mb"]["value"] > 0
        assert result["metrics"]["import.numpy_s"]["value"] > 0
        assert (tmp_path / "trace-probe_overlap-seed1.json").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, where):
        workloads.make("deep_checkpoint", tmp_path / where, seed, size="tiny")
        return {p.relative_to(tmp_path / where): p.read_bytes()
                for p in (tmp_path / where).rglob("*") if p.is_file()}

    first = files(5, "a")
    assert first == files(5, "b")
    assert first != files(6, "c")


@pytest.mark.parametrize("name, rel, edit", [
    ("deep_checkpoint", "out/analysis.json",
     lambda r: r["layers"][0]["kernels"][0]["summary"].update(centroid=0.49)),
    ("deep_checkpoint", "out/redundancy.json",
     lambda r: r["pairs"][-1].update(similarity=r["pairs"][-1]["similarity"] * 0.9)),
    ("s4d_export", "out/analysis.json",
     lambda r: r["layers"][0]["kernels"][0]["categorization"].update(combined=None)),
    ("checkpoint_suite", "wide_layer/out/redundancy.json",
     lambda r: r["pairs"].pop()),
    ("probe_overlap", "out/probe.json",
     lambda r: r.update(mean_accuracy=0.0, per_label_accuracy={"none": 0.0})),
])
def test_checks_reject_a_wrong_report(name, rel, edit, tmp_path):
    runner = _runner(name, tmp_path)
    runner.warm_pass()
    assert runner.failed == 0, runner.problems
    outputs = {k: v for step in runner.plan.steps for k, v in runner._collect(step).items()}
    report = json.loads(outputs[rel])
    edit(report)
    outputs[rel] = json.dumps(report).encode()
    assert any(runner.plan.check(outputs, runner.probe_result))


def test_reruns_may_differ_only_in_a_run_block():
    ref = {"r.json": b'{"a": 1}\n'}
    assert run._same_outputs(ref, {"r.json": b'{"a": 1, "run": {"t": 2}}'})
    assert not run._same_outputs(ref, {"r.json": b'{"a": 2}'})
    assert not run._same_outputs(ref, {"r.json": b'{"a": 1}', "x.svg": b""})


def test_a_changed_rerun_counts_as_failed(tmp_path):
    runner = _runner("wide_layer", tmp_path)
    runner.warm_pass()
    runner.reference[1]["out/plots/extra.svg"] = b"<svg/>"
    runner.warm_pass()
    assert runner.failed == 1


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.MANIFEST, tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "deep_checkpoint",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["BENCHMARK.json", "bench"]
