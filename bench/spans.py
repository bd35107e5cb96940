"""Outside-in tracing of spectrobe's layers.

Spans are recorded only by this module: it wraps public functions of the
layer modules wherever a spectrobe module namespace holds them (so
``spectrobe.cli.read_bundle`` is wrapped as well as
``spectrobe.io.read_bundle``), plus scipy's ``linprog`` at
``scipy.optimize``, which also catches an import of it made at call
time. Each span keeps its name, pass id, parent, start and end; a
layer's self time is its spans' time minus their child spans. Counters
are taken in the same wrappers.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _dir_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# (module, function, span name, counter hook). A hook gets the counters,
# the deferred list, the call's arguments and its result; deferred work
# (directory sizes) runs after the pass, outside every span.
SPANS = [
    ("spectrobe.cli", "main", "cli.main", None),
    ("spectrobe.io", "read_bundle", "io.read_bundle",
     lambda c, d, a, k, r: d.append(("io.read_bundle.bytes", a[0]))),
    ("spectrobe.io", "write_bundle", "io.write_bundle",
     lambda c, d, a, k, r: d.append(("io.write_bundle.bytes", a[1]))),
    ("spectrobe.io", "emit_report", "io.emit_report",
     # json.dumps escapes non-ASCII, so characters are bytes
     lambda c, d, a, k, r: c.update({"io.emit_report.bytes": len(r)})),
    ("spectrobe.io", "read_s4d_params", "io.read_s4d_params", None),
    ("spectrobe.io", "read_pair_dataset", "io.read_pair_dataset", None),
    ("spectrobe.analysis", "analyze_bundle", "analysis.analyze_bundle", None),
    ("spectrobe.analysis", "diff_bundles", "analysis.diff_bundles", None),
    ("spectrobe.analysis", "analyze_redundancy", "analysis.analyze_redundancy",
     lambda c, d, a, k, r: c.update({"analysis.redundancy.pairs": len(r)})),
    ("spectrobe.spectral", "compute_spectrum", "spectral.compute_spectrum", None),
    ("spectrobe.spectral", "summarize", "spectral.summarize", None),
    ("spectrobe.classify", "categorize", "classify.categorize", None),
    ("spectrobe.kernels", "materialize_s4d", "kernels.materialize_s4d",
     # modes x length, as the CLI passes them: (params, length, ...)
     lambda c, d, a, k, r: c.update(
         {"kernels.materialize_s4d.mode_samples": a[0].state_size * a[1]})),
    ("spectrobe.probe", "run_directprobe", "probe.run_directprobe",
     lambda c, d, a, k, r: c.update({"probe.merges": len(r.merge_log)})),
    ("spectrobe.probe", "separable", "probe.separable",
     lambda c, d, a, k, r: c.update({"probe.separable.rejects": int(not r)})),
    ("spectrobe.probe", "evaluate", "probe.evaluate", None),
    ("spectrobe.probe", "build_pairs", "probe.build_pairs", None),
    ("spectrobe.plot", "emit_plot", "plot.emit_plot", None),
    ("scipy.optimize", "linprog", "probe.linprog", None),
]
# the pipeline stages the workload rationales name, as groups of spans
# whose self times add up
STAGES = {
    "cli glue": ("cli.main",),
    "read": ("io.read_bundle", "io.read_s4d_params", "io.read_pair_dataset"),
    "materialize": ("kernels.materialize_s4d",),
    "spectral+classify": ("spectral.compute_spectrum", "spectral.summarize",
                          "classify.categorize"),
    "analysis+pairing": ("analysis.analyze_bundle", "analysis.diff_bundles",
                         "analysis.analyze_redundancy"),
    "probe (no LP)": ("probe.run_directprobe", "probe.separable", "probe.build_pairs",
                      "probe.evaluate"),
    "linprog": ("probe.linprog",),
    "emit": ("io.emit_report", "io.write_bundle", "plot.emit_plot"),
}
# top-level calls whose peak traced memory the tracemalloc pass reports
PEAK_CALLS = ("io.read_bundle", "analysis.analyze_bundle", "analysis.diff_bundles",
              "analysis.analyze_redundancy", "io.emit_report",
              "kernels.materialize_s4d", "probe.run_directprobe")


def replace_everywhere(original, replacement, extra_modules=()) -> list:
    """Point every spectrobe namespace holding ``original`` at
    ``replacement``; returns the (module, attribute) pairs changed."""
    changed = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "spectrobe" or name.startswith("spectrobe.")]
    for module in [*modules, *extra_modules]:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


class Tracer:
    """Span recorder for the wrapped functions.

    With ``memory`` set it records, instead of useful timings, the peak
    traced memory above the entry level of every PEAK_CALLS call; it
    expects tracemalloc to be running.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names: list[str] = []
        self.passes: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.deferred: list = []
        self.peaks: dict[str, float] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self._open_peaks: list[list] = []
        self._targets = [
            (getattr(importlib.import_module(module), func), name, hook, module)
            for module, func, name, hook in SPANS
        ]

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.passes.append(tracer.pass_id)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            frame = tracer._enter_memory(name) if tracer.memory else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.starts[idx], tracer.ends[idx] = start, end
                if frame is not None:
                    tracer._exit_memory(name, frame)
            counters = tracer.counters[tracer.pass_id]
            counters[name + ".calls"] += 1
            if hook is not None:
                hook(counters, tracer.deferred, args, kwargs, result)
            return result

        return traced

    def _enter_memory(self, name):
        if name not in PEAK_CALLS:
            return None
        current, peak = tracemalloc.get_traced_memory()
        for open_frame in self._open_peaks:
            open_frame[1] = max(open_frame[1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._open_peaks.append(frame)
        return frame

    def _exit_memory(self, name, frame):
        peak = tracemalloc.get_traced_memory()[1]
        self._open_peaks.pop()
        for open_frame in (*self._open_peaks, frame):
            open_frame[1] = max(open_frame[1], peak)
        mb = (frame[1] - frame[0]) / 1e6
        self.peaks[name] = max(self.peaks.get(name, 0.0), mb)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        scipy_optimize = sys.modules["scipy.optimize"]
        changed = []
        try:
            for fn, name, hook, module in self._targets:
                extra = (scipy_optimize,) if module == "scipy.optimize" else ()
                wrapper = self._wrap(fn, name, hook)
                changed += [(m, a, fn) for m, a in replace_everywhere(fn, wrapper, extra)]
            yield self
        finally:
            for module, attr, fn in changed:
                setattr(module, attr, fn)

    def end_pass(self) -> None:
        """Settle deferred counters of the pass just run, then start a new id."""
        counters = self.counters[self.pass_id]
        for key, path in self.deferred:
            counters[key] += _dir_bytes(path)
        self.deferred.clear()
        self.pass_id += 1

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-span totals, per-layer self times and counters of one pass."""
        idx = [i for i, p in enumerate(self.passes) if p == pass_id]
        child = Counter()
        for i in idx:
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, float] = Counter()
        for i in idx:
            duration = self.ends[i] - self.starts[i]
            out[self.names[i] + ".s"] += duration
            out[self.names[i] + ".self_s"] += duration - child[i]
            out[self.names[i].split(".")[0] + ".self_s"] += duration - child[i]
        out.update(self.counters[pass_id])
        separable = out["probe.separable.calls"]
        out["probe.lp_share"] = out["probe.linprog.calls"] / separable if separable else 0.0
        attempts = out["probe.merges"] + out["probe.separable.rejects"]
        out["probe.merge_accept_ratio"] = out["probe.merges"] / attempts if attempts else 0.0
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span and counter recorded, as columns of JSON."""
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        spans = [[code[n], p, parent, round(s, 9), round(e, 9)]
                 for n, p, parent, s, e in zip(self.names, self.passes, self.parents,
                                               self.starts, self.ends)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["name", "pass", "parent", "start", "end"],
            "names": names,
            "spans": spans,
            "counters": {str(p): dict(c) for p, c in self.counters.items()},
        }))


def stage_self_times(metrics: dict) -> list[tuple[str, float]]:
    """Self time per pipeline stage of one pass, largest first."""
    totals = {stage: sum(metrics.get(n + ".self_s", 0.0) for n in names)
              for stage, names in STAGES.items()}
    return sorted(totals.items(), key=lambda kv: -kv[1])


def import_breakdown(python: str, env: dict, cwd: Path, repeats: int = 3) -> dict:
    """Median import costs from ``python -X importtime -c 'import spectrobe.cli'``.

    A module that is not imported at all counts as 0 s.
    """
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import spectrobe.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        cumulative, spectrobe_self = {}, 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, cum_us, module = int(fields[0]), int(fields[1]), fields[2].strip()
            cumulative.setdefault(module, cum_us)
            if module == "spectrobe" or module.startswith("spectrobe."):
                spectrobe_self += self_us
        samples["import.numpy_s"].append(cumulative.get("numpy", 0) / 1e6)
        samples["import.scipy_optimize_s"].append(cumulative.get("scipy.optimize", 0) / 1e6)
        samples["import.spectrobe_self_s"].append(spectrobe_self / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}

