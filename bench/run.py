"""spectrobe benchmark: one workload, end to end or traced layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload deep_checkpoint --seed 0 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 16 --trace 0
    python3 bench/run.py --manifest        # rewrite BENCHMARK.json

The program is imported from the checkout's ``src/`` and driven through
its CLI, so nothing needs installing. Inputs are generated from the seed
under ``.perfbench_out/`` in the checkout and removed when the run ends.

One client runs a workload's steps one after another (a closed loop);
the only load is this process and the CLI processes it starts one at a
time, with BLAS threads capped at the core count.

``--trace 0`` measures, after one checked warm-up pass, alternating
cold passes (one ``python -m spectrobe.cli`` process per step, timed
from process start to the last report on disk) and warm passes
(``spectrobe.cli.main`` in this process) for ``--seconds``; setup_s is
the median of several fresh interpreters importing ``spectrobe.cli``.
``--trace 1`` alternates traced and untraced warm passes instead and
reports per-layer metrics (medians over the traced passes), the import
breakdown, and the peak traced memory of the top-level calls from a
separate tracemalloc pass. All spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

Every step's output is checked: the first pass against answers computed
here from the inputs, every later pass byte for byte against the first
(a top-level ``run`` block aside). A step fails when it exits non-zero
or its output fails the check. The last line of standard output is the
JSON result: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
MANIFEST = ROOT / "BENCHMARK.json"
NPROC = len(os.sched_getaffinity(0))
MIN_ROUNDS = 2

# the four workloads of the design, which --workload all runs one by one
WORKLOAD_NAMES = ("deep_checkpoint", "wide_layer", "s4d_export", "probe_overlap")
# the ones BENCHMARK.json names: the suite runs the first three as one pass
# (see workloads.SUITES for why)
BENCHMARKED = ("checkpoint_suite", "probe_overlap")
RUN_SECONDS = 16
# name, unit, bound: the share of the parent's median a metric may worsen
END_TO_END = [
    ("cold_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("items_per_s", "1/s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
]
PER_LAYER = [
    ("cli.main.s", "s"), ("cli.self_s", "s"),
    ("io.read_bundle.calls", "count"), ("io.read_bundle.s", "s"),
    ("io.read_bundle.bytes", "B"),
    ("io.emit_report.calls", "count"), ("io.emit_report.s", "s"),
    ("io.emit_report.bytes", "B"),
    ("io.write_bundle.calls", "count"), ("io.write_bundle.s", "s"),
    ("io.write_bundle.bytes", "B"),
    ("io.read_s4d_params.s", "s"), ("io.read_pair_dataset.s", "s"), ("io.self_s", "s"),
    ("analysis.analyze_bundle.s", "s"), ("analysis.diff_bundles.s", "s"),
    ("analysis.analyze_redundancy.s", "s"), ("analysis.redundancy.pairs", "count"),
    ("analysis.self_s", "s"),
    ("spectral.compute_spectrum.calls", "count"), ("spectral.compute_spectrum.s", "s"),
    ("spectral.summarize.calls", "count"), ("spectral.summarize.s", "s"),
    ("spectral.self_s", "s"),
    ("classify.categorize.calls", "count"), ("classify.categorize.s", "s"),
    ("classify.self_s", "s"),
    ("kernels.materialize_s4d.calls", "count"), ("kernels.materialize_s4d.s", "s"),
    ("kernels.materialize_s4d.mode_samples", "count"), ("kernels.self_s", "s"),
    ("probe.run_directprobe.s", "s"),
    ("probe.separable.calls", "count"), ("probe.separable.s", "s"),
    ("probe.separable.rejects", "count"),
    ("probe.linprog.calls", "count"), ("probe.linprog.s", "s"),
    ("probe.lp_share", "ratio"), ("probe.merges", "count"),
    ("probe.merge_accept_ratio", "ratio"),
    ("probe.evaluate.s", "s"), ("probe.build_pairs.s", "s"), ("probe.self_s", "s"),
    ("plot.emit_plot.calls", "count"), ("plot.emit_plot.s", "s"), ("plot.self_s", "s"),
    ("import.numpy_s", "s"), ("import.scipy_optimize_s", "s"),
    ("import.spectrobe_self_s", "s"),
    ("io.read_bundle.peak_mb", "MB"), ("analysis.analyze_bundle.peak_mb", "MB"),
    ("analysis.diff_bundles.peak_mb", "MB"), ("analysis.analyze_redundancy.peak_mb", "MB"),
    ("io.emit_report.peak_mb", "MB"), ("kernels.materialize_s4d.peak_mb", "MB"),
    ("probe.run_directprobe.peak_mb", "MB"),
    ("trace.overhead_s", "s"),
]


def manifest() -> dict:
    """The BENCHMARK.json this harness implements."""
    import workloads

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": workloads.WHY[n]} for n in BENCHMARKED],
        "end_to_end": [
            {"name": n, "unit": u, "better": "higher" if n == "items_per_s" else "lower",
             "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u,
             "better": "higher" if n == "probe.merge_accept_ratio" else "lower"}
            for n, u in PER_LAYER
        ],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(NPROC)
    return env


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


class Runner:
    """Runs one workload's passes and checks every step's output."""

    def __init__(self, plan, root: Path, env: dict):
        import spectrobe.cli

        self.plan = plan
        self.root = root
        self.env = env
        self.cli = spectrobe.cli
        self.reference: list[dict | None] = [None] * len(plan.steps)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probe_result = None

    def _clear(self) -> None:
        for step in self.plan.steps:
            for path in step.produces:
                if path.is_dir():
                    shutil.rmtree(path)
                elif path.exists():
                    path.unlink()
                path.parent.mkdir(parents=True, exist_ok=True)
        gc.collect()

    def warm_pass(self) -> float:
        self._clear()
        codes = []
        start = perf_counter()
        for step in self.plan.steps:
            if step.stdout:
                with open(step.produces[0], "w") as out, contextlib.redirect_stdout(out):
                    codes.append(self.cli.main(step.argv))
            else:
                codes.append(self.cli.main(step.argv))
        wall = perf_counter() - start
        self._judge(codes)
        return wall

    def cold_pass(self) -> tuple[float, float]:
        """Wall time of the pass as CLI processes, and their largest peak RSS."""
        self._clear()
        codes, peak_kib = [], 0
        start = perf_counter()
        for step in self.plan.steps:
            with contextlib.ExitStack() as stack:
                out = (stack.enter_context(open(step.produces[0], "wb"))
                       if step.stdout else subprocess.DEVNULL)
                proc = subprocess.Popen([sys.executable, "-m", "spectrobe.cli", *step.argv],
                                        stdout=out, env=self.env, cwd=self.root)
                # wait4 gives this child's own resource usage
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            codes.append(proc.returncode)
            peak_kib = max(peak_kib, usage.ru_maxrss)
        wall = perf_counter() - start
        self._judge(codes)
        return wall, peak_kib * 1024 / 1e6

    def _collect(self, step) -> dict[str, bytes]:
        files = {}
        for path in step.produces:
            for f in ([path] if path.is_file() else sorted(path.rglob("*"))):
                if f.is_file():
                    files[f.relative_to(self.root).as_posix()] = f.read_bytes()
        return files

    def _judge(self, codes) -> None:
        outputs = [self._collect(step) for step in self.plan.steps]
        if self.reference[0] is None:
            merged = {k: v for o in outputs for k, v in o.items()}
            try:
                found = self.plan.check(merged, self.probe_result)
            except Exception as exc:  # a malformed report fails the check
                found = [[f"check raised {exc!r}"]] * len(self.plan.steps)
            for i, problems in enumerate(found):
                if not problems and codes[i] == 0:
                    self.reference[i] = outputs[i]
                self.problems += problems
            verdicts = [not p for p in found]
        else:
            verdicts = [ref is not None and _same_outputs(ref, out)
                        for ref, out in zip(self.reference, outputs)]
        for i, (code, ok) in enumerate(zip(codes, verdicts)):
            self.attempted += 1
            if code != 0 or not ok:
                self.failed += 1
                self.problems.append(f"step {i} ({self.plan.steps[i].argv[0]}): "
                                     f"exit {code}, output {'ok' if ok else 'wrong'}")

    def setup_time(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import spectrobe.cli"], env=self.env,
                       cwd=self.root, check=True, timeout=120)
        return perf_counter() - start


def _same_outputs(ref: dict, out: dict) -> bool:
    if ref.keys() != out.keys():
        return False
    for rel, data in out.items():
        if data == ref[rel]:
            continue
        if not rel.endswith(".json"):
            return False
        try:
            a, b = json.loads(ref[rel]), json.loads(data)
        except ValueError:
            return False
        if not (isinstance(a, dict) and isinstance(b, dict)):
            return False
        a.pop("run", None)
        b.pop("run", None)
        if a != b:
            return False
    return True


def _capture_probe(runner) -> None:
    """Keep the last clustering the CLI computes, for the partition check."""
    import spectrobe.probe
    from spans import replace_everywhere

    original = spectrobe.probe.run_directprobe

    def capture(*args, **kwargs):
        runner.probe_result = original(*args, **kwargs)
        return runner.probe_result

    replace_everywhere(original, capture)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": NPROC, "cpu_model": model, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": NPROC, "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Run one workload; returns the result line plus a detail block."""
    import workloads

    work = WORK / f"tmp-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.make(name, work, seed, size)
        runner = Runner(plan, work, child_env())
        _capture_probe(runner)
        detail: dict = {"workload": name, "environment": environment(seed),
                        "items_per_pass": plan.items}
        if trace:
            metrics = _traced(runner, name, seed, seconds, detail)
        else:
            metrics = _untraced(runner, seconds, detail)
        detail["fail_frac"] = runner.failed / runner.attempted
        detail["problems"] = runner.problems[:20]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return {"result": result, "detail": detail}


def _stats(values) -> dict:
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _untraced(runner, seconds, detail) -> dict:
    runner.warm_pass()  # imports done, caches warm, outputs checked
    setup, cold, warm, rss = [runner.setup_time()], [], [], []
    start = perf_counter()
    # at least two rounds, so no metric rests on a single sample
    while len(cold) < MIN_ROUNDS or perf_counter() - start < seconds:
        wall, peak = runner.cold_pass()
        cold.append(wall)
        rss.append(peak)
        warm.append(runner.warm_pass())
        setup.append(runner.setup_time())
    items = [runner.plan.items / w for w in warm]
    samples = {"cold_s": cold, "wall_s": warm, "items_per_s": items,
               "setup_s": setup, "peak_rss_mb": rss}
    detail["samples"] = {k: _stats(v) for k, v in samples.items()}
    units = {n: u for n, u, _ in END_TO_END}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]}
               for k, v in samples.items()}
    metrics["items_per_s"]["value"] = runner.plan.items / metrics["wall_s"]["value"]
    return metrics


def _traced(runner, name, seed, seconds, detail) -> dict:
    import scipy.optimize  # noqa: F401  (linprog is wrapped where scipy defines it)
    from spans import PEAK_CALLS, Tracer, import_breakdown, stage_self_times

    tracer = Tracer()
    runner.warm_pass()
    traced, untraced, per_pass = [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        with tracer.installed():
            traced.append(runner.warm_pass())
        tracer.end_pass()
        per_pass.append(tracer.pass_metrics(tracer.pass_id - 1))
        untraced.append(runner.warm_pass())
        # stop unless another round fits in the time given
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    values = {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n, _ in PER_LAYER}
    values |= import_breakdown(sys.executable, runner.env, runner.root)

    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        with memory.installed():
            runner.warm_pass()
    finally:
        tracemalloc.stop()
    for call in PEAK_CALLS:
        values[f"{call}.peak_mb"] = memory.peaks.get(call, 0.0)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    tracer.dump(WORK / f"trace-{name}-seed{seed}.json")
    detail["stage_self_s"] = stage_self_times(
        {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in per_pass[0]})
    detail["samples"] = {"traced_wall_s": _stats(traced), "untraced_wall_s": _stats(untraced)}
    units = dict(PER_LAYER)
    return {n: {"value": values[n], "unit": units[n]} for n, _ in PER_LAYER}


def _print_report(out: dict) -> None:
    detail, result = out["detail"], out["result"]
    print(f"# {detail['workload']}: {result['attempted']} steps attempted, "
          f"{result['failed']} failed (fail_frac {detail['fail_frac']:.3g})")
    for key, s in detail.get("samples", {}).items():
        print(f"#   {key:<16} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n {s['n']}")
    for stage, value in detail.get("stage_self_s", []):
        print(f"#   self time {stage:<20} {value:.4f} s")
    for problem in detail["problems"]:
        print(f"#   problem: {problem}")
    print(json.dumps({"detail": detail}, sort_keys=True))


def _run_all(args) -> int:
    """Every workload, each in its own process; prints a summary table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = [n for n, *_ in (END_TO_END if not args.trace else PER_LAYER)]
    print(f"# {'metric':<40}" + "".join(f"{n:>17}" for n in rows))
    for metric in names:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        print(f"# {metric + ' [' + unit + ']':<40}"
              + "".join(f"{r['metrics'][metric]['value']:>17.6g}" for r in rows.values()))
    print("# fail_frac " + "  ".join(f"{n}={r['failed'] / r['attempted']:.3g}"
                                     for n, r in rows.items()))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "checkpoint_suite", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json from the definitions here")
    args = parser.parse_args(argv)
    if args.manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "spectrobe" / "cli.py").is_file():
        print(f"bench: no spectrobe sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_THREADS")})
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(out)
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
