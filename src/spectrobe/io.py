"""File formats and structured reports.

A kernel bundle is a directory: manifest.json plus one raw little-endian
float32 payload per kernel. A pair dataset is a directory: manifest.json,
a row-major float32 matrix of representations, and a text file of
"id_i id_j label" lines. Reports are JSON with sorted keys and stable
formatting, so identical inputs produce identical bytes. All writes land
via a temp file and rename.
"""
from __future__ import annotations

import dataclasses
import enum
import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _str
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .analysis import (
    ComplementarityReport,
    KernelBundle,
    LayerReport,
    RedundancyPair,
    ShiftReport,
    bundle_shape,
)
from .config import finite_float
from .kernels import S4DParams
from .probe import BuiltPairs, EvalResult, ProbeResult, _checked_representations
from .spectral import Direction, FloatArray

_PAYLOAD_DTYPE = "<f4"


class FormatError(ValueError):
    """A file does not match its documented format."""


def _atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a unique temp file per write, so concurrent writers never share one;
    # the kernel applies the current umask to its 0o666, as for open()
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _require(mapping, key, kind, where):
    if not isinstance(mapping, dict):
        raise FormatError(f"{where}: expected a JSON object")
    if key not in mapping:
        raise FormatError(f"{where}: missing field {key!r}")
    value = mapping[key]
    if kind is int:
        # bool is an int subclass; a manifest saying "true" is still wrong
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"{where}: field {key!r} must be an integer")
    elif not isinstance(value, kind):
        raise FormatError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _read_text(path: Path) -> str:
    """A file's text; FormatError naming the file unless it is UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


def _load_json(path) -> object:
    """A JSON file's value; FormatError naming the file when it is missing,
    not UTF-8, not JSON, or nested too deeply to parse."""
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"{path}: file not found")
    text = _read_text(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply to parse") from None
    except ValueError as exc:  # bad syntax, or an integer too long to convert
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def _check_payload(path: Path, count: int) -> None:
    """Raise unless ``path`` is a file of exactly ``count`` float32 values."""
    if not path.is_file():
        raise FormatError(f"{path}: missing payload file")
    size = path.stat().st_size
    if size != count * 4:
        raise FormatError(
            f"{path}: expected {count * 4} bytes ({count} float32 values), got {size}"
        )


def _read_payload(path: Path, out: FloatArray) -> None:
    """Fill ``out`` from a payload that passed _check_payload."""
    data = path.read_bytes()
    if len(data) != out.size * 4:
        raise FormatError(f"{path}: changed size while being read")
    out[...] = np.frombuffer(data, dtype=_PAYLOAD_DTYPE).reshape(out.shape)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise FormatError(f"{path}: non-finite value at element {bad[0]}")


def _float32(values, row_name) -> np.ndarray:
    """``values`` as the payload dtype. A value beyond the float32 range is
    a ValueError naming its row, by ``row_name(*index)``, and its element."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        payload = values.astype(_PAYLOAD_DTYPE)
    overflow = np.argwhere(np.isinf(payload))
    if overflow.size:
        *row, i = first = tuple(overflow[0])
        raise ValueError(f"{row_name(*row)}: value {values[first]:.6g} at "
                         f"element {i} overflows float32")
    return payload


def write_bundle(bundle: KernelBundle, path) -> None:
    """Write a bundle directory; payloads are quantized to float32, and a
    value beyond the float32 range is refused before any file is written."""
    payloads = _float32(bundle.values, lambda layer, d, k: (
        f"layer {layer + 1} {tuple(Direction)[d].value} kernel {k}"))
    root = Path(path)
    entries = []
    for layer, d, k in np.ndindex(bundle.values.shape[:3]):
        direction = tuple(Direction)[d].value
        rel = f"layer{layer + 1:03d}_{direction}_k{k:02d}.f32"
        _atomic_write_bytes(root / rel, payloads[layer, d, k].tobytes())
        entries.append(
            {
                "layer": layer + 1,
                "direction": direction,
                "kernel_index": k,
                "path": rel,
                "element_count": bundle.length,
            }
        )
    manifest = {
        "model_tag": bundle.model_tag,
        "N": bundle.length,
        "layer_count": bundle.layer_count,
        "kernels": entries,
    }
    _atomic_write_text(root / "manifest.json", _json(manifest) + "\n")


def read_bundle(path) -> KernelBundle:
    """Read a bundle directory back into a KernelBundle, bit-exactly.

    Payload paths must stay inside the bundle directory.
    """
    root = Path(path)
    mpath = root / "manifest.json"
    manifest = _load_json(mpath)
    model_tag = _require(manifest, "model_tag", str, mpath)
    n = _require(manifest, "N", int, mpath)
    layer_count = _require(manifest, "layer_count", int, mpath)
    entries = _require(manifest, "kernels", list, mpath)
    base = os.path.realpath(root)
    slots = []
    for i, entry in enumerate(entries):
        where = f"{mpath}: kernels[{i}]"
        layer = _require(entry, "layer", int, where)
        direction_name = _require(entry, "direction", str, where)
        try:
            direction = Direction(direction_name)
        except ValueError:
            raise FormatError(
                f"{where}: direction must be forward or backward, "
                f"got {direction_name!r}"
            ) from None
        kernel_index = _require(entry, "kernel_index", int, where)
        rel = _require(entry, "path", str, where)
        element_count = _require(entry, "element_count", int, where)
        if element_count != n:
            raise FormatError(
                f"{where}: element_count {element_count} does not match N={n}"
            )
        payload = root / rel
        if os.path.isabs(rel) or (
            os.path.commonpath([base, os.path.realpath(payload)]) != base
        ):
            raise FormatError(f"{where}: path {rel!r} leaves the bundle directory")
        _check_payload(payload, element_count)
        slots.append((layer, direction, kernel_index, element_count, payload))
    try:
        values = np.empty(bundle_shape(slot[:4] for slot in slots))
    except ValueError as exc:
        raise FormatError(f"{mpath}: {exc}") from exc
    if len(values) != layer_count:
        raise FormatError(
            f"{mpath}: layer_count says {layer_count} but entries span "
            f"{len(values)} layers"
        )
    directions = tuple(Direction)
    for layer, direction, kernel_index, _, payload in slots:
        d = directions.index(direction)
        _read_payload(payload, values[layer - 1, d, kernel_index])
    values.flags.writeable = False
    return KernelBundle(model_tag, values)


def _check_token_id(token_id, where) -> str:
    if not isinstance(token_id, str) or not token_id:
        raise FormatError(f"{where}: token ids must be nonempty strings")
    if any(ch.isspace() for ch in token_id):
        raise FormatError(f"{where}: token id {token_id!r} contains whitespace")
    return token_id


def write_pair_dataset(
    representations: Mapping[str, "np.ndarray"],
    pairs: Sequence[tuple[str, str, str]],
    path,
) -> None:
    """Write a pair-dataset directory.

    Token ids must be whitespace-free; labels must be nonempty, with no
    newlines and no leading or trailing blanks, so the text format stays
    unambiguous. A value beyond the float32 range is refused before any
    file is written.
    """
    root = Path(path)
    for token_id in representations:
        _check_token_id(token_id, root)
    vectors = _checked_representations(representations)
    if not vectors:
        raise ValueError("dataset needs at least one representation")
    lines = []
    for i, (id_i, id_j, label) in enumerate(pairs):
        for token_id in (id_i, id_j):
            if token_id not in representations:
                raise ValueError(f"pairs[{i}]: unknown token id {token_id!r}")
        if not label or label != label.strip() or "\n" in label:
            raise ValueError(
                f"pairs[{i}]: label {label!r} must be nonempty with no "
                "surrounding whitespace"
            )
        lines.append(f"{id_i} {id_j} {label}")
    ids = list(vectors)
    matrix = _float32(np.stack(list(vectors.values())),
                      lambda row: f"representation {ids[row]!r}")
    manifest = {"count": len(ids), "dimension": matrix.shape[1], "token_ids": ids}
    _atomic_write_text(root / "manifest.json", _json(manifest) + "\n")
    _atomic_write_bytes(root / "vectors.f32", matrix.tobytes())
    _atomic_write_text(root / "pairs.txt", "".join(line + "\n" for line in lines))


def read_pair_dataset(path) -> tuple[dict[str, FloatArray], list[tuple[str, str, str]]]:
    """Read a pair-dataset directory: (representations, labeled id pairs)."""
    root = Path(path)
    mpath = root / "manifest.json"
    manifest = _load_json(mpath)
    count = _require(manifest, "count", int, mpath)
    dim = _require(manifest, "dimension", int, mpath)
    ids = _require(manifest, "token_ids", list, mpath)
    if len(ids) != count:
        raise FormatError(
            f"{mpath}: count says {count} but token_ids lists {len(ids)}"
        )
    if dim < 1:
        raise FormatError(f"{mpath}: dimension must be >= 1, got {dim}")
    seen = set()
    for token_id in ids:
        _check_token_id(token_id, mpath)
        if token_id in seen:
            raise FormatError(f"{mpath}: duplicate token id {token_id!r}")
        seen.add(token_id)
    vpath = root / "vectors.f32"
    _check_payload(vpath, count * dim)
    matrix = np.empty((count, dim))
    _read_payload(vpath, matrix)
    representations = {token_id: matrix[i] for i, token_id in enumerate(ids)}
    ppath = root / "pairs.txt"
    if not ppath.is_file():
        raise FormatError(f"{ppath}: missing pair list")
    pairs = []
    for lineno, line in enumerate(_read_text(ppath).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.strip().split(maxsplit=2)
        if len(parts) != 3:
            raise FormatError(
                f"{ppath}:{lineno}: expected 'id_i id_j label', got {line!r}"
            )
        id_i, id_j, label = parts
        for token_id in (id_i, id_j):
            if token_id not in representations:
                raise FormatError(
                    f"{ppath}:{lineno}: unknown token id {token_id!r}"
                )
        pairs.append((id_i, id_j, label))
    return representations, pairs


@dataclass(frozen=True, slots=True)
class ParamsEntry:
    """One kernel's state-space parameters and its slot in the model."""

    layer: int
    direction: Direction
    kernel_index: int
    params: S4DParams


def _mode_part(mode, key, where) -> complex:
    value = _require(mode, key, list, where)
    if len(value) != 2:
        raise FormatError(f"{where}: field {key!r} must be [real, imag]")
    try:
        return complex(*(finite_float(v, f"field {key!r}") for v in value))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _check_step(step, where) -> float:
    try:
        return finite_float(step, "field 'step'")
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def read_s4d_params(path) -> tuple[str, list[ParamsEntry]]:
    """Read a state-space parameter file.

    JSON layout: {"model_tag": ..., "step": ..., "layers": [{"layer": 1,
    "forward": [{"modes": [{"a": [re, im], "c": [re, im]}, ...],
    "step": ...}, ...], "backward": [...]}, ...]}. The per-kernel step is
    optional and falls back to the file-level one.
    """
    path = Path(path)
    data = _load_json(path)
    model_tag = _require(data, "model_tag", str, path)
    default_step = data.get("step")
    if default_step is not None:
        default_step = _check_step(default_step, path)
    layers = _require(data, "layers", list, path)
    entries = []
    for li, layer_spec in enumerate(layers):
        where_layer = f"{path}: layers[{li}]"
        layer = _require(layer_spec, "layer", int, where_layer)
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            kernel_specs = _require(layer_spec, direction.value, list, where_layer)
            for ki, kernel_spec in enumerate(kernel_specs):
                where = f"{where_layer}.{direction.value}[{ki}]"
                modes = _require(kernel_spec, "modes", list, where)
                step = kernel_spec.get("step", default_step)
                if step is None:
                    raise FormatError(
                        f"{where}: no step given and no file-level default"
                    )
                step = _check_step(step, where)
                poles = []
                coefficients = []
                for mi, mode in enumerate(modes):
                    where_mode = f"{where}.modes[{mi}]"
                    poles.append(_mode_part(mode, "a", where_mode))
                    coefficients.append(_mode_part(mode, "c", where_mode))
                try:
                    params = S4DParams(
                        np.asarray(poles, dtype=np.complex128),
                        np.asarray(coefficients, dtype=np.complex128),
                        step,
                    )
                except ValueError as exc:
                    raise FormatError(f"{where}: {exc}") from exc
                entries.append(ParamsEntry(layer, direction, ki, params))
    return model_tag, entries


_SPECIAL_FLOATS = {"inf": '"infinite"', "-inf": '"-infinite"', "nan": "null"}
_SCALARS = {  # exact type -> JSON text; each enum type is added when first met
    str: _str, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
    float: lambda v: _SPECIAL_FLOATS.get(text := float.__repr__(v), text),
    type(None): {None: "null"}.__getitem__,
}
_ROWS: dict = {}  # (dataclass type, pad) -> (%-template, getter of its field tuple)


def _row(kind, pad: str):
    names = sorted(f.name for f in dataclasses.fields(kind))
    fields = "".join(f",{pad}  {_str(name)}: %s" for name in names)[1:]
    return (f"{{{fields}{pad}}}" if names else "{}"), (
        attrgetter(*names) if len(names) > 1
        else lambda value: tuple(getattr(value, name) for name in names)
    )


def _block(brackets: str, parts: list, pad: str) -> str:
    joined = f",{pad}  ".join(parts)
    return f"{brackets[0]}{pad}  {joined}{pad}{brackets[1]}" if parts else brackets


def _json(value, pad: str = "\n") -> str:
    """``value`` as emit_report writes it, nested at ``pad``: newline + indent."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    row = _ROWS.get((type(value), pad))
    if row is not None:
        template, fields = row
        return template % tuple([
            f(v) if (f := _SCALARS.get(type(v))) else _json(v, inner)
            for v in fields(value)
        ])
    if dataclasses.is_dataclass(type(value)):
        _ROWS[type(value), pad] = _row(type(value), pad)
    elif isinstance(value, enum.Enum):
        _SCALARS[type(value)] = {m: _json(m.value) for m in type(value)}.__getitem__
    elif isinstance(value, (np.generic, np.ndarray)):
        return _json(value.tolist(), pad)
    elif isinstance(value, dict):
        items = sorted({str(k): v for k, v in value.items()}.items())
        return _block("{}", [f"{_str(k)}: {_json(v, inner)}" for k, v in items], pad)
    elif isinstance(value, (list, tuple)):
        return _block("[]", [_json(v, inner) for v in value], pad)
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return _json(value, pad)


def emit_report(report, path=None) -> str:
    """Serialize a report to deterministic JSON; optionally write it.

    The text is ``json.dumps(..., indent=2, sort_keys=True)`` of the report
    with dataclasses and enums flattened to plain objects and their values,
    numpy values to lists and numbers, and infinities and NaN to the strings
    "infinite"/"-infinite" and null, so it stays valid JSON. Floats use
    their shortest exact repr, which makes equal reports byte-identical.
    """
    text = _json(report) + "\n"
    if path is not None:
        _atomic_write_text(path, text)
    return text


def analysis_payload(bundle: KernelBundle, reports: Sequence[LayerReport]) -> dict:
    return {
        "report": "analysis",
        "model_tag": bundle.model_tag,
        "length": bundle.length,
        "layer_count": bundle.layer_count,
        "kernel_count_per_direction": bundle.kernel_count_per_direction,
        "layers": [
            {"layer": report.layer, "kernels": report.entries} for report in reports
        ],
    }


def shift_payload(report: ShiftReport, before_tag: str, after_tag: str) -> dict:
    return {
        "report": "shift",
        "before_tag": before_tag,
        "after_tag": after_tag,
        "shift_threshold": report.shift_threshold,
        "flagged_early_layers": list(report.flagged_early_layers),
        "entries": list(report.entries),
    }


def complementarity_payload(report: ComplementarityReport, model_tag: str) -> dict:
    return {
        "report": "complementarity",
        "model_tag": model_tag,
        "layers": list(report.layers),
    }


def redundancy_payload(
    pairs: Sequence[RedundancyPair], model_tag: str, cutoff: float
) -> dict:
    return {
        "report": "redundancy",
        "model_tag": model_tag,
        "cutoff": cutoff,
        "pairs": list(pairs),
    }


def probe_payload(
    task,
    result: ProbeResult,
    train: BuiltPairs,
    heldout: BuiltPairs,
    evaluation: EvalResult | None,
) -> dict:
    payload = {
        "report": "probe",
        "task": task,
        "converged": result.converged,
        "cluster_count": len(result.clusters),
        "merge_count": len(result.merge_log),
        "train_points": len(result.points),
        "train_skipped": train.skipped,
        "eval_points": len(heldout.points),
        "eval_skipped": heldout.skipped,
        "per_label_accuracy": None,
        "mean_accuracy": None,
        "unknown_labels": None,
    }
    if evaluation is not None:
        payload["per_label_accuracy"] = dict(evaluation.per_label)
        payload["mean_accuracy"] = evaluation.mean_accuracy
        payload["unknown_labels"] = list(evaluation.unknown_labels)
    return payload
