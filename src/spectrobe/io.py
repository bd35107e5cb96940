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
import errno
import json
import os
import re
import stat
from json.encoder import encode_basestring_ascii as _str
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .analysis import (
    ComplementarityReport,
    KernelBundle,
    LayerReport,
    RedundancyColumns,
    ShiftReport,
    slot_grid,
)
from .config import RunConfig, config_from_mapping, finite_float, located, quoted
from .kernels import S4DParams
from .probe import BuiltPairs, EvalResult, ProbeResult, checked_pair, representation_matrix
from .spectral import DIRECTIONS, Direction, first_nonfinite

_PAYLOAD_DTYPE = "<f4"
_UNNAMEABLE = re.compile("[\0\ud800-\udfff]")  # NUL, or a surrogate JSON left unpaired
_SURROGATE = re.compile("[\ud800-\udfff]")  # in a str, each one is lone to UTF-8


class FormatError(ValueError):
    """A file does not match its documented format."""


def _atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    made_parent = False
    # a unique, short temp name per write: concurrent writers never share one,
    # and it fits beside any target; the umask applies to its 0o666 as for open()
    while True:
        tmp = path.with_name(f".{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            if made_parent or exc.errno != errno.ENOENT:
                raise _naming(exc, path)
            # the parent is made only after an open found it missing, and the
            # open then runs once more, so a write raises what it raised when
            # it made the parent before every open
            path.parent.mkdir(parents=True, exist_ok=True)
            made_parent = True
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        raise _naming(exc, path)


def _naming(exc: BaseException, path: Path) -> BaseException:
    """``exc``, raised on the temp file written for ``path``, naming ``path``."""
    if isinstance(exc, OSError) and exc.errno is not None:
        return OSError(exc.errno, exc.strerror, os.fspath(path))  # the errno's subclass
    return exc


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


def _nonblocking(path, flags: int) -> int:
    """open()'s opener for a file already checked to be regular: one swapped
    for a FIFO since then opens at once and reads as empty, not blocking."""
    return os.open(path, flags | getattr(os, "O_NONBLOCK", 0))


def _read_text(path: Path) -> str:
    """A file's text; FormatError naming the file unless it is UTF-8."""
    try:
        with open(path, encoding="utf-8", opener=_nonblocking) as handle:
            return handle.read()
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


def _check_payload(path: Path, count: int, where) -> None:
    """Raise, naming ``where``, unless ``path`` holds exactly ``count`` float32s."""
    try:
        status = os.stat(path)
    except OSError as exc:  # pathlib's is_file() reads these as no file
        if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            raise FormatError(f"{where}: cannot read payload ({exc.strerror})") from None
        status = None
    if status is None or not stat.S_ISREG(status.st_mode):
        raise FormatError(f"{where}: missing payload file")
    if status.st_size != count * 4:
        raise FormatError(f"{where}: expected {count * 4} bytes "
                          f"({count} float32 values), got {status.st_size}")


def _read_payload(path: Path, buffer: np.ndarray) -> np.ndarray:
    """``buffer``, an array of the payload dtype, filled from a payload that
    passed _check_payload; the caller checks its values finite."""
    with open(path, "rb", opener=_nonblocking) as handle:
        if handle.readinto(buffer) != buffer.nbytes or handle.read(1):
            raise FormatError(f"{path}: changed size while being read")
    return buffer


def _inside(base: str, root: Path, rel: str, real_dirs: dict) -> bool:
    """Whether ``root/rel`` resolves into ``base``, root's realpath, by the
    realpath + commonpath rule. A last component that is not a symlink, ``.``
    or ``..`` resolves to itself, so each directory is resolved only once."""
    head, tail = os.path.split(rel)
    if head not in real_dirs:
        real = os.path.realpath(root / head)
        real_dirs[head] = real, os.path.commonpath([base, real]) == base
    real_dir, inside = real_dirs[head]
    real = os.path.join(real_dir, tail)
    try:
        link = stat.S_ISLNK(os.lstat(real).st_mode)
    except OSError:  # nothing there to follow
        link = False
    if link or tail in ("", ".", ".."):
        real = os.path.realpath(root / rel)
        return os.path.commonpath([base, real]) == base
    return inside or real == base


def _float32(values, row_name) -> np.ndarray:
    """``values`` as the payload dtype. A value beyond the float32 range is
    a ValueError naming its row, by ``row_name(*index)``, and its element."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        payload = values.astype(_PAYLOAD_DTYPE)
    if (first := first_nonfinite(payload)) is not None:  # ``values`` are finite
        *row, i = first
        raise ValueError(f"{row_name(*row)}: value {values[first]:.6g} at "
                         f"element {i} overflows float32")
    return payload


def write_bundle(bundle: KernelBundle, path) -> None:
    """Write a bundle directory; payloads are quantized to float32, and a
    value beyond the float32 range is refused before any file is written."""
    payloads = _float32(bundle.values, lambda layer, d, k: (
        f"layer {layer + 1} {DIRECTIONS[d].value} kernel {k}"))
    root = Path(path)
    entries = []
    for layer, d, k in np.ndindex(bundle.values.shape[:3]):
        direction = DIRECTIONS[d].value
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
    """Read a bundle directory back into a KernelBundle, bit-exactly: its
    values are one read-only float32 array, each payload read into its slot.

    Payload paths must stay inside the bundle directory.
    """
    root = Path(path)
    mpath = root / "manifest.json"
    manifest = _load_json(mpath)
    model_tag = _require(manifest, "model_tag", str, mpath)
    n = _require(manifest, "N", int, mpath)
    if n < 2:
        raise FormatError(f"{mpath}: N must be >= 2, got {n}")
    layer_count = _require(manifest, "layer_count", int, mpath)
    entries = _require(manifest, "kernels", list, mpath)
    base = os.path.realpath(root)
    real_dirs = {}
    slots = []
    for i, entry in enumerate(entries):
        where = f"{mpath}: kernels[{i}]"
        layer = _require(entry, "layer", int, where)
        direction_name = _require(entry, "direction", str, where)
        try:
            direction = Direction(direction_name)
        except ValueError:
            raise FormatError(f"{where}: direction must be forward or backward, "
                              f"got {quoted(direction_name)}") from None
        kernel_index = _require(entry, "kernel_index", int, where)
        rel = _require(entry, "path", str, where)
        element_count = _require(entry, "element_count", int, where)
        if element_count != n:
            raise FormatError(f"{where}: element_count {element_count} "
                              f"does not match N={n}")
        bad = _UNNAMEABLE.search(rel)
        if bad:
            what = "a NUL byte" if bad[0] == "\0" else "a lone surrogate"
            raise FormatError(f"{where}: path {quoted(rel)} has {what}")
        if os.path.isabs(rel) or not _inside(base, root, rel, real_dirs):
            raise FormatError(f"{where}: path {quoted(rel)} leaves the bundle directory")
        payload = root / rel
        _check_payload(payload, element_count, f"{where}: path {quoted(rel)}")
        slots.append((layer, direction, kernel_index, payload))
    with located(mpath, FormatError):
        payloads = slot_grid(slots)
    if len(payloads) != layer_count:
        raise FormatError(
            f"{mpath}: layer_count says {layer_count} but entries span "
            f"{len(payloads)} layers"
        )
    values = np.empty((*payloads.shape, n), _PAYLOAD_DTYPE)
    for slot, payload in np.ndenumerate(payloads):
        _read_payload(payload, values[slot])
    values.flags.writeable = False
    try:  # the bundle's one finite scan; only when it fails is the value found
        return KernelBundle(model_tag, values)
    except ValueError:  # the manifest checks leave a non-finite value as its one fault
        *slot, element = first_nonfinite(values)
        raise FormatError(f"{payloads[tuple(slot)]}: non-finite value at element {element}")


def _check_token_id(token_id, where) -> str:
    if not isinstance(token_id, str) or not token_id:
        raise FormatError(f"{where}: token ids must be nonempty strings")
    if token_id.split() != [token_id]:  # str.split breaks where str.isspace is true
        raise FormatError(f"{where}: token id {quoted(token_id)} contains whitespace")
    return token_id


def _check_encodable(what, text) -> None:
    if _SURROGATE.search(text):
        raise FormatError(f"{what} {quoted(text)} has a lone surrogate")


def write_pair_dataset(
    representations: Mapping[str, "np.ndarray"],
    pairs: Sequence[tuple[str, str, str]],
    path,
) -> None:
    """Write a pair-dataset directory.

    Each pair must pass ``probe.checked_pair``; token ids must be
    whitespace-free and labels one line with no surrounding blanks, so the
    text format stays unambiguous. An id or label with a lone surrogate
    (UTF-8 cannot carry it) or a value beyond the float32 range is refused
    before any file is written; the manifest is written last.
    """
    root = Path(path)
    for token_id in representations:
        _check_token_id(token_id, root)
        _check_encodable(f"{root}: token id", token_id)
    matrix = representation_matrix(representations)
    if not len(matrix):
        raise ValueError("dataset needs at least one representation")
    lines = []
    for i, pair in enumerate(pairs):
        with located(f"pairs[{i}]"):
            id_i, id_j, label = checked_pair(pair, representations)
            # the reader splits pairs.txt at every line break str.splitlines knows
            if label.splitlines() != [label] or label != label.strip():
                raise ValueError(f"label {quoted(label)} must be one nonempty line "
                                 "with no surrounding whitespace")
            _check_encodable("label", label)
        lines.append(f"{id_i} {id_j} {label}\n")
    ids = list(representations)
    matrix = _float32(matrix, lambda row: f"representation {quoted(ids[row])}")
    manifest = {"count": len(ids), "dimension": matrix.shape[1], "token_ids": ids}
    files = {
        "vectors.f32": matrix.tobytes(),
        "pairs.txt": "".join(lines).encode("utf-8"),
        "manifest.json": (_json(manifest) + "\n").encode("utf-8"),
    }
    for name, data in files.items():
        _atomic_write_bytes(root / name, data)


def read_pair_dataset(path) -> tuple[dict[str, np.ndarray], list[tuple[str, str, str]]]:
    """Read a pair-dataset directory: (representations, labeled id pairs);
    each representation is a float32 row of the one matrix read."""
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
            raise FormatError(f"{mpath}: duplicate token id {quoted(token_id)}")
        seen.add(token_id)
    vpath = root / "vectors.f32"
    _check_payload(vpath, count * dim, vpath)
    matrix = _read_payload(vpath, np.empty((count, dim), _PAYLOAD_DTYPE))
    if (first := first_nonfinite(matrix.reshape(-1))) is not None:
        raise FormatError(f"{vpath}: non-finite value at element {first[0]}")
    representations = dict(zip(ids, matrix))
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
                f"{ppath}:{lineno}: expected 'id_i id_j label', got {quoted(line)}"
            )
        try:
            pairs.append(checked_pair(parts, representations))
        except ValueError as exc:
            raise FormatError(f"{ppath}:{lineno}: {exc}") from None
    return representations, pairs


def _mode_part(mode, key, where) -> complex:
    value = _require(mode, key, list, where)
    if len(value) != 2:
        raise FormatError(f"{where}: field {key!r} must be [real, imag]")
    # not located(): twice per mode, and a context costs more than this call
    try:
        return complex(*(finite_float(v, f"field {key!r}") for v in value))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def read_s4d_params(path) -> tuple[str, np.ndarray]:
    """Read a state-space parameter file into its model tag and a
    (layers, 2, kernels per direction) object array of S4DParams, placed
    like a bundle's kernels: ``params[layer - 1, d, k]``.

    JSON layout: {"model_tag": ..., "step": ..., "layers": [{"layer": 1,
    "forward": [{"modes": [{"a": [re, im], "c": [re, im]}, ...],
    "step": ...}, ...], "backward": [...]}, ...]}. The per-kernel step is
    optional and falls back to the file-level one. The entries must fill a
    bundle's slot grid (see slot_grid): layers 1..L once each, with equal
    forward and backward list lengths.
    """
    path = Path(path)
    data = _load_json(path)
    model_tag = _require(data, "model_tag", str, path)
    default_step = data.get("step")
    if default_step is not None:
        with located(path, FormatError):
            default_step = finite_float(default_step, "field 'step'")
    layers = _require(data, "layers", list, path)
    slots = []
    for li, layer_spec in enumerate(layers):
        where_layer = f"{path}: layers[{li}]"
        layer = _require(layer_spec, "layer", int, where_layer)
        for direction in DIRECTIONS:
            kernel_specs = _require(layer_spec, direction.value, list, where_layer)
            for ki, kernel_spec in enumerate(kernel_specs):
                where = f"{where_layer}.{direction.value}[{ki}]"
                modes = _require(kernel_spec, "modes", list, where)
                step = kernel_spec.get("step", default_step)
                if step is None:
                    raise FormatError(
                        f"{where}: no step given and no file-level default"
                    )
                with located(where, FormatError):
                    step = finite_float(step, "field 'step'")
                poles = []
                coefficients = []
                for mi, mode in enumerate(modes):
                    where_mode = f"{where}.modes[{mi}]"
                    poles.append(_mode_part(mode, "a", where_mode))
                    coefficients.append(_mode_part(mode, "c", where_mode))
                with located(where, FormatError):
                    params = S4DParams(poles, coefficients, step)
                slots.append((layer, direction, ki, params))
    with located(path, FormatError):
        return model_tag, slot_grid(slots)


def load_config(path) -> RunConfig:
    """RunConfig from a JSON file of threshold overrides."""
    data = _load_json(path)
    with located(path):
        return config_from_mapping(data)


_SPECIAL_FLOATS = {"inf": '"infinite"', "-inf": '"-infinite"', "nan": "null"}
_SCALARS = {  # exact type -> JSON text; each enum type is added when first met
    str: _str, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
    float: lambda v: _SPECIAL_FLOATS.get(text := float.__repr__(v), text),
    type(None): {None: "null"}.__getitem__,
}
_ROWS: dict = {}  # (dataclass type, pad) -> (%-template, getter of its field tuple)
_BLOCK_ROWS = 4096  # rows of a column record formatted per join


def _row(kind, pad: str):
    names = sorted(f.name for f in dataclasses.fields(kind))
    fields = "".join(f",{pad}  {_str(name)}: %s" for name in names)[1:]
    return (f"{{{fields}{pad}}}" if names else "{}"), (
        attrgetter(*names) if len(names) > 1
        else lambda value: tuple(getattr(value, name) for name in names)
    )


def _block(brackets: str, parts: list, pad: str) -> str:
    if not parts:
        return brackets
    # brackets into the fresh list's end items: the join is the one full copy
    parts[0] = f"{brackets[0]}{pad}  {parts[0]}"
    parts[-1] = f"{parts[-1]}{pad}{brackets[1]}"
    return f",{pad}  ".join(parts)


def _rows(record, pad: str) -> str:
    """A record of equal-length columns as the list of its rows, each row
    written as an object with the record's fields would be.

    Column by column, in blocks of _BLOCK_ROWS rows: each column's block
    is formatted with one map into every n-th slot of one list that
    already holds the template's literals, and that list is joined once.
    Blocks bound the per-value strings alive at once to one block's."""
    n = len(record)
    if not n:
        return "[]"
    template, fields = _row(type(record), pad + "  ")
    first, *literals, last = template.split("%s")
    # one row's slots: the text before its first field (the previous row's
    # end and the separator), then each field's value and the text after it
    unit = [f"{last},{pad}  {first}"]
    for literal in literals:
        unit += [None, literal]
    unit.append(None)
    columns = []
    for column in fields(record):
        if column.dtype.kind == "f" and np.isfinite(column).all():
            scalar = float.__repr__  # no infinity or NaN to spell out
        else:
            head = column[:1].tolist()[0]
            _json(head)  # adds an enum type to _SCALARS when first met
            scalar = _SCALARS[type(head)]
        columns.append((scalar, column))
    blocks = []
    for start in range(0, n, _BLOCK_ROWS):
        parts = unit * min(_BLOCK_ROWS, n - start)
        if not start:
            parts[0] = f"[{pad}  {first}"
        for slot, (scalar, column) in enumerate(columns, 1):
            values = column[start:start + _BLOCK_ROWS].tolist()
            parts[2 * slot - 1::len(unit)] = map(scalar, values)
        blocks.append("".join(parts))
    blocks.append(f"{last}{pad}]")
    return "".join(blocks)


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
    if isinstance(value, RedundancyColumns):
        return _rows(value, pad)
    elif dataclasses.is_dataclass(type(value)):
        _ROWS[type(value), pad] = _row(type(value), pad)
    elif isinstance(value, enum.Enum):
        # keyed by value: a member's own hash is Enum.__hash__, Python code
        texts = {m._value_: _json(m._value_) for m in type(value)}
        _SCALARS[type(value)] = lambda member: texts[member._value_]
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
    RedundancyColumns to a list of row objects, numpy values to lists and
    numbers, and infinities and NaN to the strings
    "infinite"/"-infinite" and null, so it stays valid JSON. Floats use
    their shortest exact repr, which makes equal reports byte-identical.
    A RedundancyColumns record is written column by column, in blocks of
    rows, not row by row; the bytes are those of its list of rows.
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


def redundancy_payload(pairs: RedundancyColumns, model_tag: str, cutoff: float) -> dict:
    return {
        "report": "redundancy",
        "model_tag": model_tag,
        "cutoff": cutoff,
        "pairs": pairs,
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
