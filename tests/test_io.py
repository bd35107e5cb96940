import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import spectrobe.io
from helpers import class_pair_bundle
from spectrobe import (
    Complementarity,
    Direction,
    FilterClass,
    FormatError,
    Kernel,
    KernelBundle,
    PairTask,
    analyze_bundle,
    analyze_redundancy,
    build_pairs,
    detect_complementary,
    diff_bundles,
    emit_report,
    evaluate,
    read_bundle,
    read_pair_dataset,
    read_s4d_params,
    run_directprobe,
    write_bundle,
    write_pair_dataset,
)
from spectrobe.config import quoted
from spectrobe.io import (
    _atomic_write_bytes,
    analysis_payload,
    complementarity_payload,
    probe_payload,
    redundancy_payload,
    shift_payload,
)

FWD = Direction.FORWARD
BWD = Direction.BACKWARD
LOW = FilterClass.LOW_PASS


def f32_grid(rng, n):
    """Random values already representable in float32."""
    return rng.standard_normal(n).astype("<f4").astype(np.float64)


def small_bundle(rng, tag="model-a", layers=2, length=32):
    kernels = []
    for layer in range(1, layers + 1):
        for direction in (FWD, BWD):
            kernels.append(
                Kernel(f32_grid(rng, length), layer=layer, direction=direction)
            )
    return KernelBundle.from_kernels(tag, kernels)


class TestBundleRoundTrip:
    def test_values_and_slots_survive(self, tmp_path):
        rng = np.random.default_rng(60)
        bundle = small_bundle(rng)
        write_bundle(bundle, tmp_path / "b")
        loaded = read_bundle(tmp_path / "b")
        assert loaded.model_tag == bundle.model_tag
        originals = list(bundle.iter_kernels())
        copies = list(loaded.iter_kernels())
        assert len(copies) == len(originals)
        for orig, copy in zip(originals, copies):
            np.testing.assert_array_equal(copy.values, orig.values)
            assert (copy.layer, copy.direction, copy.kernel_index) == (
                orig.layer, orig.direction, orig.kernel_index,
            )

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(61)
        bundle = small_bundle(rng)
        write_bundle(bundle, tmp_path / "one")
        write_bundle(bundle, tmp_path / "two")
        for rel in sorted(p.name for p in (tmp_path / "one").iterdir()):
            assert (tmp_path / "one" / rel).read_bytes() == (
                tmp_path / "two" / rel
            ).read_bytes()

    def test_payloads_are_quantized_to_float32(self, tmp_path):
        values = np.array([0.1, math.pi] + [0.0] * 30)
        kernels = [
            Kernel(values, layer=1, direction=d) for d in (FWD, BWD)
        ]
        write_bundle(KernelBundle.from_kernels("q", kernels), tmp_path / "b")
        loaded = read_bundle(tmp_path / "b")
        expected = values.astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(
            loaded.layers[1][FWD][0].values, expected
        )

    @pytest.mark.filterwarnings("error")
    def test_value_beyond_float32_is_refused_before_writing(self, tmp_path):
        bundle = small_bundle(np.random.default_rng(63))
        values = bundle.values.copy()
        values[1, 1, 0, 3] = -3.5e38  # float32 max is about 3.4028e38
        values[1, 1, 0, 4] = 3.4028235e38  # rounds to float32 max, no overflow
        with pytest.raises(ValueError, match="layer 2 backward kernel 0: value "
                           "-3.5e[+]38 at element 3 overflows float32"):
            write_bundle(KernelBundle("big", values), tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_read_holds_one_float32_copy(self, tmp_path):
        values = np.random.default_rng(64).standard_normal((4, 2, 8, 4096))
        write_bundle(KernelBundle("one-copy", values), tmp_path / "b")
        payload_bytes = values.size * 4  # 1 MiB of float32 payloads
        tracemalloc.start()
        try:
            loaded = read_bundle(tmp_path / "b")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the array the payloads fill plus the finite scans' masks; a
        # float64 copy alone would be 2x
        assert peak <= 1.5 * payload_bytes
        assert loaded.values.dtype == np.float32
        assert not loaded.values.flags.writeable

    def test_no_temp_files_left_behind(self, tmp_path):
        rng = np.random.default_rng(62)
        write_bundle(small_bundle(rng), tmp_path / "b")
        assert not list((tmp_path / "b").glob("*.tmp"))

    def test_read_hashes_no_direction(self, tmp_path, monkeypatch):
        # Enum.__hash__ is Python code, so the slot check keys by direction index
        write_bundle(KernelBundle("grid", np.ones((3, 2, 4, 8))), tmp_path / "b")
        hashed = []
        monkeypatch.setattr(Direction, "__hash__",
                            lambda member: hashed.append(member) or hash(member._name_))
        assert read_bundle(tmp_path / "b").values.shape == (3, 2, 4, 8)
        manifest = tmp_path / "b" / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["kernels"][13]  # layer 2 backward kernel 1
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="layer 2 backward kernel 1 is missing"):
            read_bundle(tmp_path / "b")
        assert hashed == []

    def test_read_scans_for_non_finite_values_once(self, tmp_path, monkeypatch):
        write_bundle(KernelBundle("scan", np.ones((3, 2, 4, 8))), tmp_path / "b")
        isfinite, scanned = np.isfinite, []
        monkeypatch.setattr(np, "isfinite",
                            lambda values: scanned.append(values.size) or isfinite(values))
        assert read_bundle(tmp_path / "b").values.shape == (3, 2, 4, 8)
        assert scanned == [3 * 2 * 4 * 8]  # the bundle's own scan, not one per payload


class TestBundleReadErrors:
    @pytest.fixture
    def written(self, tmp_path):
        rng = np.random.default_rng(63)
        write_bundle(small_bundle(rng), tmp_path / "b")
        return tmp_path / "b"

    def manifest(self, root):
        return json.loads((root / "manifest.json").read_text())

    def rewrite(self, root, manifest):
        (root / "manifest.json").write_text(json.dumps(manifest))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FormatError, match="file not found"):
            read_bundle(tmp_path / "nope")

    def test_invalid_json(self, written):
        (written / "manifest.json").write_text("{]")
        with pytest.raises(FormatError, match="invalid JSON"):
            read_bundle(written)

    def test_missing_field(self, written):
        m = self.manifest(written)
        del m["model_tag"]
        self.rewrite(written, m)
        with pytest.raises(FormatError, match="model_tag"):
            read_bundle(written)

    def test_too_short_n(self, written):
        m = self.manifest(written)
        m["N"] = 1
        self.rewrite(written, m)
        with pytest.raises(FormatError, match="N must be >= 2, got 1"):
            read_bundle(written)

    def test_wrong_field_type(self, written):
        m = self.manifest(written)
        m["N"] = "32"
        self.rewrite(written, m)
        with pytest.raises(FormatError, match="integer"):
            read_bundle(written)

    def test_bad_direction(self, written):
        m = self.manifest(written)
        m["kernels"][0]["direction"] = "sideways"
        self.rewrite(written, m)
        with pytest.raises(FormatError, match="sideways"):
            read_bundle(written)

    def test_element_count_must_match_n(self, written):
        m = self.manifest(written)
        m["kernels"][0]["element_count"] = 16
        self.rewrite(written, m)
        with pytest.raises(FormatError, match="does not match N"):
            read_bundle(written)

    def test_truncated_payload(self, written):
        victim = written / self.manifest(written)["kernels"][0]["path"]
        victim.write_bytes(victim.read_bytes()[:-4])
        with pytest.raises(FormatError, match="expected 128 bytes"):
            read_bundle(written)

    def test_missing_payload(self, written):
        victim = written / self.manifest(written)["kernels"][0]["path"]
        victim.unlink()
        with pytest.raises(FormatError, match="missing payload"):
            read_bundle(written)

    def test_non_finite_payload(self, written):
        victim = written / self.manifest(written)["kernels"][0]["path"]
        data = np.frombuffer(victim.read_bytes(), dtype="<f4").copy()
        data[3] = np.inf
        victim.write_bytes(data.tobytes())
        with pytest.raises(FormatError, match="element 3"):
            read_bundle(written)

    def test_first_non_finite_payload_in_grid_order_is_named(self, written):
        m = self.manifest(written)
        m["kernels"].reverse()  # manifest order is no longer grid order
        self.rewrite(written, m)
        for entry, index in ((m["kernels"][1], 5), (m["kernels"][2], 3)):
            victim = written / entry["path"]
            data = np.frombuffer(victim.read_bytes(), dtype="<f4").copy()
            data[index] = np.nan
            victim.write_bytes(data.tobytes())
        with pytest.raises(FormatError) as caught:
            read_bundle(written)
        # kernels[2] comes before kernels[1] in (layer, direction, kernel) order
        assert str(caught.value) == (f"{written / m['kernels'][2]['path']}: "
                                     "non-finite value at element 3")

    def test_size_change_is_named_before_an_earlier_non_finite_value(
            self, written, monkeypatch):
        # values are checked only once every payload is read
        m = self.manifest(written)
        first, last = (written / m["kernels"][i]["path"] for i in (0, -1))
        data = np.frombuffer(first.read_bytes(), dtype="<f4").copy()
        data[2] = np.inf
        first.write_bytes(data.tobytes())
        check = spectrobe.io._check_payload

        def check_then_grow(path, count, where):
            check(path, count, where)
            if path == last:
                with open(path, "ab") as f:
                    f.write(b"\0" * 4)

        monkeypatch.setattr(spectrobe.io, "_check_payload", check_then_grow)
        with pytest.raises(FormatError, match="changed size while being read"):
            read_bundle(written)

    def test_bundle_invariants_reported_as_format_errors(self, written):
        m = self.manifest(written)
        m["kernels"] = [e for e in m["kernels"] if e["direction"] == "forward"]
        self.rewrite(written, m)
        with pytest.raises(FormatError, match="backward"):
            read_bundle(written)

    @pytest.mark.parametrize("rel", ["../x.f32", "/etc/passwd"])
    def test_payload_path_must_stay_inside_the_bundle(self, written, rel):
        m = self.manifest(written)
        # a well-formed payload, so only the path itself is wrong
        victim = written / m["kernels"][0]["path"]
        (written.parent / "x.f32").write_bytes(victim.read_bytes())
        m["kernels"][0]["path"] = rel
        self.rewrite(written, m)
        with pytest.raises(FormatError, match="leaves the bundle directory"):
            read_bundle(written)

    # (path in the last manifest entry, expected error or None for a clean
    # read). The tree around the bundle b: ../x.f32 and ../out/x.f32 outside,
    # x.f32 and sub/x.f32 inside, and the symlinks link_out -> ../x.f32,
    # link_in -> x.f32, dir_out -> ../out, dir_in -> sub and up -> ..
    @pytest.mark.parametrize("rel, error", [
        ("link_out", "leaves the bundle directory"),
        ("link_in", None),
        ("dir_out/x.f32", "leaves the bundle directory"),
        ("dir_in/x.f32", None),
        ("sub/../x.f32", None),
        ("sub/../../x.f32", "leaves the bundle directory"),
        ("dir_in/../x.f32", None),
        ("dir_out/../x.f32", "leaves the bundle directory"),
        ("up/x.f32", "leaves the bundle directory"),
        ("up/b/x.f32", None),
        ("up/b", "missing payload file"),  # the bundle directory itself
        ("../b", "missing payload file"),
        ("up", "leaves the bundle directory"),
        ("..", "leaves the bundle directory"),
        ("./x.f32", None),
        ("", "missing payload file"),
        (".", "missing payload file"),
        ("sub/", "missing payload file"),
        ("sub/x.f32/", None),  # the path is read as sub/x.f32
        ("ghost/../x.f32", "missing payload file"),
        ("ABSOLUTE", "leaves the bundle directory"),
        ("x\0.f32", "has a NUL byte"),
        ("x\ud800.f32", "has a lone surrogate"),
    ])
    def test_containment_follows_symlinks(self, written, rel, error):
        m = self.manifest(written)
        last = m["kernels"][-1]
        data = (written / last["path"]).read_bytes()
        outside = -np.frombuffer(data, dtype="<f4")
        (written.parent / "out").mkdir()
        for path in (written.parent / "x.f32", written.parent / "out" / "x.f32"):
            path.write_bytes(outside.tobytes())
        (written / "sub").mkdir()
        (written / "x.f32").write_bytes(data)
        (written / "sub" / "x.f32").write_bytes(data)
        for name, target in [("link_out", "../x.f32"), ("link_in", "x.f32"),
                             ("dir_out", "../out"), ("dir_in", "sub"), ("up", "..")]:
            (written / name).symlink_to(target)
        if rel == "ABSOLUTE":
            rel = str(written / "x.f32")
        last["path"] = rel
        self.rewrite(written, m)
        if error is None:
            bundle = read_bundle(written)
            np.testing.assert_array_equal(bundle.values[-1, -1, -1],
                                          np.frombuffer(data, dtype="<f4"))
            return
        i = len(m["kernels"]) - 1
        message = (f"{written / 'manifest.json'}: kernels[{i}]: path {quoted(rel)}"
                   + (": " if error.startswith("missing") else " ") + error)
        with pytest.raises(FormatError) as caught:
            read_bundle(written)
        assert str(caught.value) == message

    def test_layer_count_cross_check(self, written):
        m = self.manifest(written)
        m["layer_count"] = 5
        self.rewrite(written, m)
        with pytest.raises(FormatError, match="layer_count"):
            read_bundle(written)


class TestHandBuiltBundle:
    def test_reader_accepts_an_independently_written_directory(self, tmp_path):
        root = tmp_path / "hand"
        root.mkdir()
        entries = []
        value = 0.5
        for layer in (1, 2):
            for direction in ("forward", "backward"):
                rel = f"{direction}-{layer}.bin"
                np.full(4, value, dtype="<f4").tofile(root / rel)
                entries.append(
                    {
                        "path": rel,
                        "layer": layer,
                        "direction": direction,
                        "kernel_index": 0,
                        "element_count": 4,
                    }
                )
                value += 0.25
        manifest = {
            "kernels": entries,
            "model_tag": "hand-rolled",
            "layer_count": 2,
            "N": 4,
        }
        (root / "manifest.json").write_text(json.dumps(manifest))
        bundle = read_bundle(root)
        assert bundle.model_tag == "hand-rolled"
        assert bundle.layer_count == 2 and bundle.length == 4
        np.testing.assert_array_equal(
            bundle.layers[1][FWD][0].values, np.full(4, 0.5)
        )
        np.testing.assert_array_equal(
            bundle.layers[2][BWD][0].values, np.full(4, 1.25)
        )


SET_PAIR = {"var:x", "var:y", "x"}  # three items in no fixed order


class TestPairDataset:
    reps = {
        "fn:main": np.array([1.5, -2.25], dtype=np.float64),
        "var:x": np.array([0.5, 0.75]),
        "var:y": np.array([-1.0, 3.5]),
    }
    pairs = [
        ("fn:main", "var:x", "2"),
        ("var:x", "var:y", "comes from"),
    ]

    def test_round_trip(self, tmp_path):
        write_pair_dataset(self.reps, self.pairs, tmp_path / "d")
        reps, pairs = read_pair_dataset(tmp_path / "d")
        assert list(reps) == list(self.reps)
        for token_id, vector in self.reps.items():
            assert reps[token_id].dtype == np.float32
            np.testing.assert_array_equal(reps[token_id], vector)
        assert pairs == self.pairs

    def test_multiword_label_survives(self, tmp_path):
        write_pair_dataset(self.reps, self.pairs, tmp_path / "d")
        _, pairs = read_pair_dataset(tmp_path / "d")
        assert pairs[1][2] == "comes from"

    def test_empty_pair_list_is_fine(self, tmp_path):
        write_pair_dataset(self.reps, [], tmp_path / "d")
        _, pairs = read_pair_dataset(tmp_path / "d")
        assert pairs == []

    def test_rewrite_is_byte_identical(self, tmp_path):
        write_pair_dataset(self.reps, self.pairs, tmp_path / "one")
        write_pair_dataset(self.reps, self.pairs, tmp_path / "two")
        for rel in ("manifest.json", "vectors.f32", "pairs.txt"):
            assert (tmp_path / "one" / rel).read_bytes() == (
                tmp_path / "two" / rel
            ).read_bytes()

    def test_write_validation(self, tmp_path):
        with pytest.raises(ValueError, match="whitespace"):
            write_pair_dataset({"bad id": np.ones(2)}, [], tmp_path / "d")
        with pytest.raises(ValueError, match="label"):
            write_pair_dataset(
                self.reps, [("var:x", "var:y", " padded ")], tmp_path / "d"
            )
        with pytest.raises(ValueError, match="unknown token id"):
            write_pair_dataset(self.reps, [("var:x", "ghost", "2")], tmp_path / "d")
        with pytest.raises(ValueError, match="dimension"):
            write_pair_dataset(
                {"a": np.ones(2), "b": np.ones(3)}, [], tmp_path / "d"
            )
        with pytest.raises(ValueError, match="at least one"):
            write_pair_dataset({}, [], tmp_path / "d")

    @pytest.mark.filterwarnings("error")
    def test_value_beyond_float32_is_refused_before_writing(self, tmp_path):
        reps = dict(self.reps, **{"var:z": np.array([1.0, 3.5e38])})
        with pytest.raises(ValueError, match="representation 'var:z': value "
                           "3.5e[+]38 at element 1 overflows float32"):
            write_pair_dataset(reps, self.pairs, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("label", ["a\u2028b", "a\rb", "a\x0bb", "a\x85b", "a\n"])
    def test_label_must_be_one_line_to_the_reader(self, tmp_path, label):
        # str.splitlines, which the reader uses, breaks at each of these
        with pytest.raises(ValueError) as caught:
            write_pair_dataset(self.reps, [("var:x", "var:y", label)], tmp_path / "d")
        assert str(caught.value) == (f"pairs[0]: label {quoted(label)} must be one "
                                     "nonempty line with no surrounding whitespace")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("pair, message", [
        ("abc", "pair must be (id_i, id_j, label), got 'abc'"),
        (SET_PAIR, f"pair must be (id_i, id_j, label), got {quoted(SET_PAIR)}"),
        ((["var:x"], "var:y", "x"), "unknown token id ['var:x']"),
        (("var:x", "var:y"), "pair must be (id_i, id_j, label), got ('var:x', 'var:y')"),
        (("var:x", "var:y", "x", "y"),
         "pair must be (id_i, id_j, label), got ('var:x', 'var:y', 'x', 'y')"),
        (("var:x", "ghost", 5), "label must be a nonempty string"),
        (("var:x", "var:y", ""), "label must be a nonempty string"),
    ], ids=["str-pair", "set-pair", "list-id", "two-items", "four-items", "int-label",
            "empty-label"])
    def test_a_faulty_pair_is_refused_as_the_builder_refuses_it(self, tmp_path, pair,
                                                                message):
        root = tmp_path / "d"
        with pytest.raises(ValueError) as caught:
            write_pair_dataset(self.reps, [self.pairs[0], pair], root)
        assert str(caught.value) == f"pairs[1]: {message}"
        assert not root.exists()

    @pytest.mark.parametrize("reps, pairs, message", [
        ({"t\ud800": np.ones(2)}, [],
         "{root}: token id 't\\ud800' has a lone surrogate"),
        ({"a": np.ones(2)}, [("a", "a", "ok"), ("a", "a", "x\udfff")],
         "pairs[1]: label 'x\\udfff' has a lone surrogate"),
    ], ids=["token-id", "label"])
    def test_lone_surrogate_is_refused_before_writing(self, tmp_path, reps, pairs,
                                                      message):
        root = tmp_path / "d"
        with pytest.raises(ValueError) as caught:
            write_pair_dataset(reps, pairs, root)
        assert str(caught.value) == message.format(root=root)
        assert not root.exists()

    @pytest.mark.parametrize("space", [chr(c) for c in range(sys.maxunicode + 1)
                                       if chr(c).isspace()], ids=ord)
    def test_an_id_holding_any_whitespace_is_refused(self, tmp_path, space):
        token_id = f"t{space}1"
        root = tmp_path / "d"
        with pytest.raises(FormatError) as caught:
            write_pair_dataset({token_id: np.ones(2)}, [], root)
        assert str(caught.value) == f"{root}: token id {quoted(token_id)} contains whitespace"
        write_pair_dataset({"t1": np.ones(2)}, [], root)
        mpath = root / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["token_ids"] = [token_id]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError) as caught:
            read_pair_dataset(root)
        assert str(caught.value) == f"{mpath}: token id {quoted(token_id)} contains whitespace"

    def test_manifest_is_written_last(self, tmp_path, monkeypatch):
        written, write = [], spectrobe.io._atomic_write_bytes

        def recorded(path, data):
            written.append(path.name)
            write(path, data)

        monkeypatch.setattr(spectrobe.io, "_atomic_write_bytes", recorded)
        write_pair_dataset(self.reps, self.pairs, tmp_path / "d")
        assert written[-1] == "manifest.json"
        assert sorted(written) == ["manifest.json", "pairs.txt", "vectors.f32"]

    def test_duplicate_token_id_rejected(self, tmp_path):
        write_pair_dataset(self.reps, self.pairs, tmp_path / "d")
        mpath = tmp_path / "d" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["token_ids"][1] = manifest["token_ids"][0]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="duplicate"):
            read_pair_dataset(tmp_path / "d")

    def test_unknown_id_in_pairs_names_the_line(self, tmp_path):
        write_pair_dataset(self.reps, self.pairs, tmp_path / "d")
        ppath = tmp_path / "d" / "pairs.txt"
        ppath.write_text(ppath.read_text() + "ghost var:x 2\n")
        with pytest.raises(FormatError) as caught:
            read_pair_dataset(tmp_path / "d")
        assert str(caught.value) == f"{ppath}:3: unknown token id 'ghost'"

    def test_malformed_line(self, tmp_path):
        write_pair_dataset(self.reps, [], tmp_path / "d")
        (tmp_path / "d" / "pairs.txt").write_text("var:x\n")
        with pytest.raises(FormatError, match="expected"):
            read_pair_dataset(tmp_path / "d")

    def test_missing_pairs_file(self, tmp_path):
        write_pair_dataset(self.reps, [], tmp_path / "d")
        (tmp_path / "d" / "pairs.txt").unlink()
        with pytest.raises(FormatError, match="missing pair list"):
            read_pair_dataset(tmp_path / "d")

    def test_vector_size_lie(self, tmp_path):
        write_pair_dataset(self.reps, [], tmp_path / "d")
        mpath = tmp_path / "d" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["dimension"] = 5
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="expected 60 bytes"):
            read_pair_dataset(tmp_path / "d")

    def test_non_finite_vector_names_the_file_and_element(self, tmp_path):
        write_pair_dataset(self.reps, [], tmp_path / "d")
        vpath = tmp_path / "d" / "vectors.f32"
        data = np.frombuffer(vpath.read_bytes(), dtype="<f4").copy()
        data[[3, 5]] = -np.inf
        vpath.write_bytes(data.tobytes())
        with pytest.raises(FormatError) as caught:
            read_pair_dataset(tmp_path / "d")
        assert str(caught.value) == f"{vpath}: non-finite value at element 3"

    def test_dimension_below_one(self, tmp_path):
        write_pair_dataset(self.reps, [], tmp_path / "d")
        mpath = tmp_path / "d" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["dimension"] = 0
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="dimension must be >= 1, got 0"):
            read_pair_dataset(tmp_path / "d")

    def test_blank_lines_are_skipped(self, tmp_path):
        write_pair_dataset(self.reps, self.pairs, tmp_path / "d")
        ppath = tmp_path / "d" / "pairs.txt"
        ppath.write_text("\n" + ppath.read_text() + "\n\n")
        _, pairs = read_pair_dataset(tmp_path / "d")
        assert pairs == self.pairs

    def test_label_loses_surrounding_whitespace(self, tmp_path):
        write_pair_dataset(self.reps, [], tmp_path / "d")
        (tmp_path / "d" / "pairs.txt").write_text(
            "var:x var:y none \n fn:main var:x  comes from\t\nvar:y var:x none\n")
        _, pairs = read_pair_dataset(tmp_path / "d")
        assert [label for _, _, label in pairs] == ["none", "comes from", "none"]

    def test_feeds_build_pairs(self, tmp_path):
        write_pair_dataset(self.reps, self.pairs, tmp_path / "d")
        reps, pairs = read_pair_dataset(tmp_path / "d")
        built = build_pairs(reps, pairs, PairTask.SIBLINGS)
        assert len(built.points) == 2


class TestParamsFile:
    def params_doc(self):
        return {
            "model_tag": "ssm-small",
            "step": 0.1,
            "layers": [
                {
                    "layer": 1,
                    "forward": [
                        {"modes": [{"a": [-1.0, 2.0], "c": [0.5, -1.0]}]}
                    ],
                    "backward": [
                        {
                            "modes": [{"a": [-0.5, 0.0], "c": [1.0, 0.0]}],
                            "step": 0.25,
                        }
                    ],
                }
            ],
        }

    def write(self, tmp_path, doc):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        return path

    def test_good_file(self, tmp_path):
        # layer 2 listed before layer 1, two kernels per direction, each
        # with its own pole; some set their own step, the rest take the file's
        def kernel(pole, **step):
            return {"modes": [{"a": [pole, 1.0], "c": [1.0, 0.0]}], **step}

        doc = self.params_doc()
        first = doc["layers"][0]
        first["forward"].append(kernel(-2.0))
        first["backward"].append(kernel(-3.0, step=0.5))
        doc["layers"].insert(0, {
            "layer": 2,
            "forward": [kernel(-4.0), kernel(-5.0)],
            "backward": [kernel(-6.0, step=0.75), kernel(-7.0)],
        })
        tag, params = read_s4d_params(self.write(tmp_path, doc))
        assert tag == "ssm-small"
        assert params.shape == (2, 2, 2)
        for layer_spec in doc["layers"]:
            for d, direction in enumerate(("forward", "backward")):
                for k, spec in enumerate(layer_spec[direction]):
                    got = params[layer_spec["layer"] - 1, d, k]
                    a = spec["modes"][0]["a"]
                    assert got.poles.tolist() == [complex(*a)]
                    assert got.step == spec.get("step", 0.1)
        assert params[0, 0, 0].step == 0.1  # file-level default
        assert params[0, 1, 0].step == 0.25  # per-kernel override
        assert params[0, 0, 0].poles[0] == -1.0 + 2.0j

    def test_missing_step_everywhere(self, tmp_path):
        doc = self.params_doc()
        del doc["step"]
        del doc["layers"][0]["backward"][0]["step"]
        with pytest.raises(FormatError, match="no step"):
            read_s4d_params(self.write(tmp_path, doc))

    def test_bad_mode_entry(self, tmp_path):
        doc = self.params_doc()
        doc["layers"][0]["forward"][0]["modes"][0]["a"] = [-1.0]
        with pytest.raises(FormatError, match=r"modes\[0\]"):
            read_s4d_params(self.write(tmp_path, doc))

    def test_unstable_pole_is_located(self, tmp_path):
        doc = self.params_doc()
        doc["layers"][0]["forward"][0]["modes"][0]["a"] = [0.5, 0.0]
        with pytest.raises(FormatError, match=r"layers\[0\].forward\[0\]"):
            read_s4d_params(self.write(tmp_path, doc))

    def test_missing_direction_list(self, tmp_path):
        doc = self.params_doc()
        del doc["layers"][0]["backward"]
        with pytest.raises(FormatError, match="backward"):
            read_s4d_params(self.write(tmp_path, doc))


class TestEmitReport:
    def test_special_floats_and_enums(self, tmp_path):
        payload = {
            "ratio": math.inf,
            "drop": -math.inf,
            "hole": math.nan,
            "direction": FWD,
            "values": np.array([1.0, 2.5]),
            "flag": np.bool_(True),
            "single": np.float32(0.5),
        }
        text = emit_report(payload, tmp_path / "r.json")
        data = json.loads(text)
        assert data["ratio"] == "infinite"
        assert data["drop"] == "-infinite"
        assert data["hole"] is None
        assert data["direction"] == "forward"
        assert data["values"] == [1.0, 2.5]
        assert data["flag"] is True
        assert data["single"] == 0.5
        assert (tmp_path / "r.json").read_text() == text
        assert text.endswith("\n")

    def test_keys_are_sorted(self):
        assert emit_report({"b": 1, "a": 2}).index('"a"') < emit_report(
            {"b": 1, "a": 2}
        ).index('"b"')

    def test_byte_determinism(self):
        payload = {"x": [1 / 3, 2 / 7], "cls": FilterClass.LOW_PASS}
        assert emit_report(payload) == emit_report(payload)

    def test_no_temp_file_left(self, tmp_path):
        emit_report({"k": 1}, tmp_path / "out" / "r.json")
        assert not list((tmp_path / "out").glob("*.tmp"))

    def test_unsupported_value_is_refused_before_writing(self, tmp_path):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            emit_report({"k": object()}, tmp_path / "r.json")
        assert not list(tmp_path.iterdir())


class TestAtomicWrite:
    def test_concurrent_writers_leave_one_whole_payload(self, tmp_path):
        target = tmp_path / "out" / "k.f32"
        payloads = [bytes([i]) * 200_000 for i in range(8)]
        errors = []

        def writer(data):
            try:
                for _ in range(20):
                    _atomic_write_bytes(target, data)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert target.read_bytes() in payloads
        assert not list(target.parent.glob("*.tmp"))

    @pytest.mark.parametrize("umask", [0o002, 0o027])
    def test_file_gets_the_current_umask_mode(self, tmp_path, umask):
        saved = os.umask(umask)
        try:
            _atomic_write_bytes(tmp_path / "r.json", b"{}")
        finally:
            os.umask(saved)
        assert (tmp_path / "r.json").stat().st_mode & 0o777 == 0o666 & ~umask

    def test_missing_parents_are_made(self, tmp_path):
        _atomic_write_bytes(tmp_path / "a" / "b" / "r.json", b"{}")
        assert (tmp_path / "a" / "b" / "r.json").read_bytes() == b"{}"

    def test_a_parent_that_is_a_file_is_not_a_directory(self, tmp_path):
        # the temp open's ENOTDIR, naming the target; no mkdir is tried,
        # whose EEXIST would read as if the output existed already
        (tmp_path / "f").write_bytes(b"")
        target = tmp_path / "f" / "r.json"
        with pytest.raises(NotADirectoryError) as caught:
            _atomic_write_bytes(target, b"{}")
        assert caught.value.filename == str(target)
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("spectrobe.io.os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            _atomic_write_bytes(tmp_path / "r.json", b"{}")
        assert list(tmp_path.iterdir()) == []


class TestPayloadBuilders:
    def test_analysis_payload_serializes(self):
        # DC-only two-tap kernel: the 0.5 bin is exactly zero, so the
        # band ratio is infinite and must serialize as a string
        kernels = [Kernel(np.ones(2), layer=1, direction=d) for d in (FWD, BWD)]
        bundle = KernelBundle.from_kernels("m", kernels)
        reports = analyze_bundle(bundle)
        text = emit_report(analysis_payload(bundle, reports))
        data = json.loads(text)
        assert data["report"] == "analysis"
        entry = data["layers"][0]["kernels"][0]
        assert entry["categorization"]["combined"] == "low_pass"
        assert entry["summary"]["lhfr"] == "infinite"

    def test_shift_payload_serializes(self):
        before = class_pair_bundle("a", [(LOW, LOW)], length=64)
        after = class_pair_bundle("b", [(FilterClass.HIGH_PASS, LOW)], length=64)
        report = diff_bundles(before, after)
        data = json.loads(emit_report(shift_payload(report, "a", "b")))
        assert data["report"] == "shift"
        assert data["flagged_early_layers"] == [1]
        assert data["entries"][0]["class_after"] == "high_pass"

    def test_complementarity_payload_serializes(self):
        bundle = class_pair_bundle("m", [(LOW, FilterClass.HIGH_PASS)], length=64)
        report = detect_complementary(analyze_bundle(bundle))
        data = json.loads(emit_report(complementarity_payload(report, "m")))
        assert data["layers"][0]["strength"] == Complementarity.STRICT.value

    def test_redundancy_payload_serializes(self):
        rng = np.random.default_rng(64)
        values = rng.standard_normal(32)
        kernels = []
        for direction in (FWD, BWD):
            for idx in range(2):
                kernels.append(
                    Kernel(values, layer=1, direction=direction, kernel_index=idx)
                )
        pairs = analyze_redundancy(KernelBundle.from_kernels("m", kernels))
        data = json.loads(emit_report(redundancy_payload(pairs, "m", 0.95)))
        assert [(p["layer"], p["direction"], p["kernel_index_a"], p["kernel_index_b"],
                 p["redundant"]) for p in data["pairs"]] == [
            (1, "forward", 0, 1, True), (1, "backward", 0, 1, True)]
        assert [p["similarity"] for p in data["pairs"]] == pairs.similarity.tolist()

    def test_probe_payload_with_and_without_evaluation(self):
        reps = {"a": np.array([0.0]), "b": np.array([5.0])}
        train = build_pairs(reps, [("a", "b", "2"), ("a", "b", "7")],
                            PairTask.DISTANCE)
        result = run_directprobe(train.points)
        evaluation = evaluate(result, train.points)
        full = probe_payload(PairTask.DISTANCE, result, train, train, evaluation)
        data = json.loads(emit_report(full))
        assert data["task"] == "distance"
        assert data["train_skipped"] == 1
        assert data["mean_accuracy"] == 1.0
        bare = probe_payload(PairTask.DISTANCE, result, train, train, None)
        data = json.loads(emit_report(bare))
        assert data["mean_accuracy"] is None
        assert data["per_label_accuracy"] is None
