"""Property tests of the invariants the verdicts and the file boundary promise.

A kernel's class must not depend on its scale, sign or time direction; a
bundle must come back from disk as the float32 rounding of what was
written, and float32 values must give the reports and probe points their
float64 widening gives; a degenerate kernel changes only its own diff
row; the pair-dataset writer and the probe's pair builder refuse a
faulty pair with one message; a slot list is a bundle's exactly when it
fills a grid; and no malformed input file may make the CLI exit 2.
"""
import contextlib
import copy
import io
import json
import re
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
    Direction,
    Kernel,
    KernelBundle,
    PairTask,
    analyze_bundle,
    analyze_redundancy,
    build_pairs,
    categorize,
    compute_spectrum,
    diff_bundles,
    emit_report,
    read_bundle,
    read_pair_dataset,
    summarize,
    write_bundle,
    write_pair_dataset,
)
from spectrobe.analysis import slot_grid
from spectrobe.io import analysis_payload, redundancy_payload, shift_payload
from spectrobe.spectral import DIRECTIONS, ZERO_BAND_FLOOR

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
    assert back.values.dtype == np.float32
    assert back.values.astype(np.float64).tobytes() == rounded.tobytes()


@settings(max_examples=200)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.text(max_size=8)),
                max_size=4))
def test_a_pair_dataset_the_writer_accepts_reads_back_equal(ids, rows):
    reps = {token_id: np.full(2, i + 0.5) for i, token_id in enumerate(ids)}
    pairs = [(ids[i % len(ids)], ids[j % len(ids)], label) for i, j, label in rows]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "d"
        try:
            write_pair_dataset(reps, pairs, root)
        except ValueError:
            assert not root.exists()
            return
        back, back_pairs = read_pair_dataset(root)
    assert list(back) == ids
    assert all(back[token_id].tolist() == reps[token_id].tolist() for token_id in ids)
    assert back_pairs == pairs


def report_texts(bundle):
    """The analyze, diff (against the bundle's layers reversed) and
    redundancy reports of ``bundle``, as emit_report writes them."""
    reversed_layers = KernelBundle("r", bundle.values[::-1])
    shift = shift_payload(diff_bundles(bundle, reversed_layers), "m", "r")
    cutoff = DEFAULT_CONFIG.redundancy_cutoff
    return [emit_report(analysis_payload(bundle, analyze_bundle(bundle))),
            emit_report(shift),
            emit_report(redundancy_payload(analyze_redundancy(bundle), "m", cutoff))]


@settings(max_examples=50)
@given(hnp.arrays(np.float32,
                  st.tuples(st.integers(1, 3), st.just(2), st.integers(2, 3),
                            st.integers(2, 17)),
                  elements=st.floats(-FLOAT32_MAX, FLOAT32_MAX, width=32)))
def test_float32_and_float64_bundles_give_the_same_reports(values):
    held32 = KernelBundle("m", values)
    held64 = KernelBundle("m", values.astype(np.float64))
    assert (held32.values.dtype, held64.values.dtype) == (np.float32, np.float64)
    assert report_texts(held32) == report_texts(held64)


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(8, 64),
       st.integers(0, 2**32 - 1), st.data())
def test_a_degenerate_kernel_changes_only_its_own_diff_row(layers, count, n, seed,
                                                            data):
    rng = np.random.default_rng(seed)
    before = rng.standard_normal((layers, 2, count, n))
    after = before + 0.5 * rng.standard_normal(before.shape)
    slot = (data.draw(st.integers(0, layers - 1)), data.draw(st.integers(0, 1)),
            data.draw(st.integers(0, count - 1)))
    sides = data.draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    dead = [values.copy() for values in (before, after)]
    for values, zeroed in zip(dead, sides):
        if zeroed:
            values[slot] = 0.0
    live = diff_bundles(KernelBundle("b", before), KernelBundle("a", after))
    report = diff_bundles(KernelBundle("b", dead[0]), KernelBundle("a", dead[1]))
    row = np.ravel_multi_index(slot, (layers, 2, count))  # (layer, direction, k) order
    null = report.entries[row]
    assert (null.layer, DIRECTIONS.index(null.direction), null.kernel_index) == (
        slot[0] + 1, slot[1], slot[2])
    assert (null.sc_before, null.sc_after, null.delta_sc,
            null.class_before, null.class_after, null.shifted_high) == (
        None, None, None, None, None, False)
    assert len(report.entries) == len(live.entries)
    for i, (got, want) in enumerate(zip(report.entries, live.entries)):
        if i != row:
            assert emit_report(got) == emit_report(want)
    assert set(report.flagged_early_layers) <= set(live.flagged_early_layers)


@settings(max_examples=50)
@given(hnp.arrays(np.float32, st.tuples(st.integers(2, 5), st.integers(1, 4)),
                  elements=st.floats(-FLOAT32_MAX, FLOAT32_MAX, width=32)),
       st.sampled_from(list(PairTask)))
def test_float32_rows_build_the_points_of_float64_ones(matrix, task):
    ids = [f"t{i}" for i in range(len(matrix))]
    labels = {PairTask.DISTANCE: "3", PairTask.SIBLINGS: "yes", PairTask.DFG_EDGE: "e"}
    pairs = [(a, b, labels[task]) for a in ids for b in ids if a != b]
    with tempfile.TemporaryDirectory() as tmp:
        write_pair_dataset(dict(zip(ids, matrix)), pairs, Path(tmp) / "d")
        reps, read_pairs = read_pair_dataset(Path(tmp) / "d")
    assert read_pairs == pairs
    assert {rep.dtype for rep in reps.values()} == {np.dtype(np.float32)}
    widened = {token_id: rep.astype(np.float64) for token_id, rep in reps.items()}
    got, want = build_pairs(reps, pairs, task), build_pairs(widened, pairs, task)
    assert [(p.vector.tobytes(), p.label) for p in got.points] == [
        (p.vector.tobytes(), p.label) for p in want.points]


PAIR_IDS = ["t0", "t1", "t2"]
PAIR_FAULTS = {
    "str-pair": lambda draw, pair: draw(st.text(max_size=6)),
    "set-pair": lambda draw, pair: set(pair),
    "two-items": lambda draw, pair: pair[:2],
    "four-items": lambda draw, pair: (*pair, pair[2]),
    "non-str-label": lambda draw, pair: (*pair[:2], draw(st.sampled_from(
        [5, None, 2.0, b"x", ["x"]]))),
    "empty-label": lambda draw, pair: (*pair[:2], ""),
    "unknown-id": lambda draw, pair: with_id(draw, pair, st.text().filter(
        lambda text: text not in PAIR_IDS)),
    "non-str-id": lambda draw, pair: with_id(draw, pair, st.sampled_from(
        [5, None, b"t0", ["t0"], ("t0",)])),
}


def with_id(draw, pair, ids):
    """``pair`` with one of its two ids drawn from ``ids``."""
    slot = draw(st.integers(0, 1))
    return (*pair[:slot], draw(ids), *pair[slot + 1:])


@st.composite
def pairs_with_one_fault(draw):
    """Valid pairs, as tuples or lists, with at most two labels, and one
    faulty pair at a drawn position; (pairs, position)."""
    pair = st.tuples(st.sampled_from(PAIR_IDS), st.sampled_from(PAIR_IDS),
                     st.sampled_from(["x", "y"]))
    pairs = draw(st.lists(pair.map(draw(st.sampled_from([tuple, list]))), max_size=5))
    fault = PAIR_FAULTS[draw(st.sampled_from(sorted(PAIR_FAULTS)))]
    position = draw(st.integers(0, len(pairs)))
    pairs.insert(position, fault(draw, tuple(draw(pair))))
    return pairs, position


@settings(max_examples=200)
@given(pairs_with_one_fault())
def test_the_writer_and_the_builder_refuse_a_faulty_pair_alike(case):
    pairs, position = case
    reps = {token_id: np.full(2, i + 0.5) for i, token_id in enumerate(PAIR_IDS)}
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(ValueError) as wrote:
            write_pair_dataset(reps, pairs, Path(tmp) / "d")
        assert not (Path(tmp) / "d").exists()
    with pytest.raises(ValueError) as built:
        build_pairs(reps, pairs, PairTask.SIBLINGS)
    assert str(wrote.value) == str(built.value)
    assert str(built.value).startswith(f"pairs[{position}]: ")


# ------------------------------------------------------------------ grid

slots = st.tuples(st.integers(-1, 4), st.sampled_from(DIRECTIONS),
                  st.integers(-1, 3))


@st.composite
def slot_lists(draw):
    """A full L x 2 x K grid in any order, then up to three edits: a slot
    dropped, repeated, replaced or added."""
    layers, count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    got = draw(st.permutations([(layer, d, k) for layer in range(1, layers + 1)
                                for d in DIRECTIONS for k in range(count)]))
    for edit in draw(st.lists(st.sampled_from("drop repeat replace add".split()),
                              max_size=3)):
        i = draw(st.integers(0, max(len(got) - 1, 0)))
        if edit == "drop" and got:
            del got[i]
        elif edit == "repeat" and got:
            got.insert(draw(st.integers(0, len(got))), got[i])
        elif edit == "replace" and got:
            got[i] = draw(slots)
        elif edit == "add":
            got.insert(i, draw(slots))
    return got


def full_grid(got):
    """(layers, kernels per direction) when ``got`` lists each slot of a
    grid exactly once, else None."""
    if not got or len(set(got)) != len(got):
        return None
    layers, count = max(s[0] for s in got), max(s[2] for s in got) + 1
    grid = {(layer, d, k) for layer in range(1, layers + 1) for d in DIRECTIONS
            for k in range(count)}
    return (layers, count) if set(got) == grid else None


@settings(max_examples=400)
@given(slot_lists())
def test_slot_grid_accepts_exactly_the_full_grids(got):
    expected = full_grid(got)
    entries = [(*slot, slot) for slot in got]  # each slot is its own item
    if expected is not None:
        grid = slot_grid(entries)
        assert grid.shape == (expected[0], 2, expected[1])
        for layer, direction, k in got:
            cell = grid[layer - 1, DIRECTIONS.index(direction), k]
            assert cell == (layer, direction, k)
        return
    with pytest.raises(ValueError) as refusal:
        slot_grid(entries)
    message = str(refusal.value)
    if not got:
        assert message == "no kernels given"
        return
    match = re.fullmatch(r"layer (-?\d+) (\w+) kernel (-?\d+) is (.+)", message)
    slot = int(match[1]), Direction(match[2]), int(match[3])
    if match[4] == "out of range":
        assert slot in got and (slot[0] < 1 or slot[2] < 0)
    elif match[4] == "listed twice":
        assert got.count(slot) >= 2
    else:
        assert match[4] == "missing" and slot not in got
        assert 1 <= slot[0] <= max(s[0] for s in got)
        assert 0 <= slot[2] <= max(s[2] for s in got)


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
