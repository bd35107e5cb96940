"""Property tests of the invariants the verdicts and the file boundary promise.

A kernel's class must not depend on its scale, sign or time direction; a
bundle must come back from disk as the float32 rounding of what was
written; and no malformed input file may make the CLI exit 2.
"""
import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import spectrobe.cli as cli
from spectrobe import (
    DEFAULT_CONFIG,
    Kernel,
    KernelBundle,
    categorize,
    compute_spectrum,
    read_bundle,
    summarize,
    write_bundle,
    write_pair_dataset,
)
from spectrobe.spectral import ZERO_BAND_FLOOR

FLOAT32_MAX = float(np.finfo(np.float32).max)


def far(value, threshold, margin=1e-9):
    return abs(value - threshold) >= margin * abs(threshold)


@st.composite
def damped_tones(draw):
    """A sum of one to three damped cosines: kernels of every class."""
    n = draw(st.integers(16, 128))
    t = np.arange(n)
    values = np.zeros(n)
    for _ in range(draw(st.integers(1, 3))):
        f, amp, phase, decay = (draw(st.floats(lo, hi)) for lo, hi in
                                ((0.0, 0.5), (0.1, 1.0), (0.0, 6.3), (0.0, 0.3)))
        values += amp * np.cos(2 * np.pi * f * t + phase) * np.exp(-decay * t)
    return values


def verdict_with_margin(values):
    """The kernel's verdict, or None when its centroid, band ratio or a
    band sum sits within 1e-9 (relative) of a threshold it is compared to."""
    s = summarize(compute_spectrum(Kernel(values)))
    cfg = DEFAULT_CONFIG
    floor = ZERO_BAND_FLOOR * s.total_magnitude
    if not (far(s.centroid, cfg.sc_low_bound) and far(s.centroid, cfg.sc_high_bound)
            and far(s.lhfr, cfg.lhfr_low_pass_min)
            and far(s.lhfr, cfg.lhfr_high_pass_max)
            and far(s.e_low, floor) and far(s.e_high, floor)):
        return None
    return categorize(s)


@settings(max_examples=300)
@given(damped_tones(), st.floats(1e-6, 1e6))
def test_class_ignores_scale_sign_and_time_reversal(values, scale):
    assume(np.abs(values).max() > 1e-3)
    verdict = verdict_with_margin(values)
    assume(verdict is not None)
    for transformed in (scale * values, -values, values[::-1]):
        assert categorize(summarize(compute_spectrum(Kernel(transformed)))) == verdict


@settings(max_examples=100)
@given(
    hnp.arrays(np.float64,
               st.tuples(st.integers(1, 2), st.just(2), st.integers(1, 3),
                         st.integers(2, 9)),
               elements=st.floats(-FLOAT32_MAX, FLOAT32_MAX)),
    st.text(max_size=12),
)
def test_bundle_round_trip_is_the_float32_rounding(values, model_tag):
    with tempfile.TemporaryDirectory() as tmp:
        write_bundle(KernelBundle(model_tag, values), Path(tmp) / "b")
        back = read_bundle(Path(tmp) / "b")
    assert back.model_tag == model_tag
    rounded = values.astype("<f4").astype(np.float64)
    assert back.values.tobytes() == rounded.tobytes()


# ---------------------------------------------------------------- hostile

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
DEEP = "\x00deep\x00"


def nodes(doc, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from nodes(value, path + (key,))


@st.composite
def hostile_bytes(draw, base):
    """``base`` as JSON with one value replaced, dropped or nested deep, or
    arbitrary bytes, or a document nested beyond any parser's depth."""
    how = draw(st.sampled_from(["replace", "drop", "deep", "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=40) | st.just(b'{"a": "\xff\xfe"}'))
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from(list(nodes(base))))
    new = {"replace": lambda: draw(json_values), "deep": lambda: DEEP}.get(how)
    if not path:
        doc = new() if new else {}
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if new:
            parent[path[-1]] = new()
        else:
            del parent[path[-1]]
    text = json.dumps(doc)
    if how == "deep":
        depth = draw(st.sampled_from([50, 900, 985, 995, 1500, 100_000]))
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"k": ', "}")]))
        text = text.replace(json.dumps(DEEP), opener * depth + "0" + closer * depth)
    return text.encode()


def cli_exit(argv):
    with contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(arg) for arg in argv])


@contextlib.contextmanager
def fresh_copy(base: Path):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "in"
        shutil.copytree(base, work)
        yield work


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """A valid input directory of each kind."""
    root = tmp_path_factory.mktemp("bases")
    values = np.random.default_rng(0).standard_normal((1, 2, 1, 16))
    write_bundle(KernelBundle("m", values), root / "bundle")
    (root / "params").mkdir()
    (root / "params" / "params.json").write_text(json.dumps({
        "model_tag": "ssm", "step": 0.1, "layers": [{
            "layer": 1,
            "forward": [{"modes": [{"a": [-1.0, 2.0], "c": [1.0, 0.0]}]}],
            "backward": [{"modes": [{"a": [-0.5, 1.0], "c": [0.0, 1.0]}],
                          "step": 0.2}],
        }],
    }))
    (root / "config").mkdir()
    (root / "config" / "config.json").write_text('{"sc_low_bound": 0.1}')
    reps = {"a": np.zeros(2), "b": np.array([0.5, 0.0]), "c": np.ones(2) * 10}
    write_pair_dataset(reps, [("a", "b", "2"), ("c", "a", "3"), ("b", "c", "4")],
                       root / "pairs")
    return {name: root / name for name in ("bundle", "params", "config", "pairs")}


def argv_for(kind, work: Path, bases):
    out = work.parent / "out"
    return {
        "bundle": ["analyze", "--bundle", work, "--out", out],
        "params": ["materialize", "--params", work / "params.json",
                   "--length", 16, "--out", out],
        "config": ["analyze", "--bundle", bases["bundle"], "--out", out,
                   "--config", work / "config.json"],
        "pairs": ["probe", "--train", work, "--eval", work, "--task", "distance",
                  "--out", out],
    }[kind]


HOSTILE_FILES = {"bundle": "manifest.json", "params": "params.json",
                 "config": "config.json", "pairs": "manifest.json"}


@settings(max_examples=200)
@given(st.sampled_from(sorted(HOSTILE_FILES)), st.data())
def test_malformed_json_inputs_never_exit_two(bases, kind, data):
    name = HOSTILE_FILES[kind]
    doc = json.loads((bases[kind] / name).read_text())
    with fresh_copy(bases[kind]) as work:
        (work / name).write_bytes(data.draw(hostile_bytes(doc)))
        assert cli_exit(argv_for(kind, work, bases)) in (0, 1)


@settings(max_examples=60)
@given(st.sampled_from(["pairs.txt", "vectors.f32"]),
       st.binary(max_size=64) | st.text(max_size=40).map(str.encode))
def test_malformed_pair_files_never_exit_two(bases, name, payload):
    with fresh_copy(bases["pairs"]) as work:
        (work / name).write_bytes(payload)
        assert cli_exit(argv_for("pairs", work, bases)) in (0, 1)
