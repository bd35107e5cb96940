"""emit_report against the generic flatten-then-dump it replaced.

``reference_jsonable`` is the recursive flattening that emit_report used
to run before ``json.dumps(..., indent=2, sort_keys=True)``; the writer
must give the same bytes for every report dataclass and every value the
flattening accepted.
"""
import dataclasses
import enum
import json
import math

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from spectrobe import emit_report, write_bundle, write_pair_dataset
from spectrobe.analysis import (
    Complementarity,
    ComplementarityReport,
    KernelAnalysis,
    KernelBundle,
    LayerComplementarity,
    LayerReport,
    RedundancyColumns,
    ShiftEntry,
    ShiftReport,
    analyze_redundancy,
)
from spectrobe.classify import Categorization, Confidence, FilterClass
from spectrobe.io import _BLOCK_ROWS
from spectrobe.probe import (
    BuiltPairs,
    Cluster,
    EvalResult,
    MergeRecord,
    PairTask,
    ProbeResult,
)
from spectrobe.spectral import Direction, SpectralSummary


def reference_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: reference_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        if math.isinf(value):
            return "infinite" if value > 0 else "-infinite"
        if math.isnan(value):
            return None
        return value
    if isinstance(value, (np.generic, np.ndarray)):
        return reference_jsonable(value.tolist())
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    return value


def reference_text(value) -> str:
    return json.dumps(
        reference_jsonable(value), indent=2, sort_keys=True, allow_nan=False
    ) + "\n"


REPORT_TYPES = (
    SpectralSummary, Categorization, KernelAnalysis, LayerReport,
    LayerComplementarity, ComplementarityReport, ShiftEntry, ShiftReport,
    Cluster, MergeRecord, ProbeResult, BuiltPairs, EvalResult,
)
ENUMS = (Direction, FilterClass, Confidence, Complementarity, PairTask)

floats = st.one_of(
    st.floats(),  # includes inf, -inf, nan, -0.0 and subnormals
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.2e-308,
                     1.7976931348623157e308, 0.1, 1e16, 1e-7]),
)
ints = st.one_of(  # beyond 2**53 a float cannot hold them exactly
    st.integers(), st.integers(2**53 + 1, 2**80), st.integers(-(2**80), -(2**53) - 1)
)
text = st.one_of(st.text(), st.sampled_from(["é-ssm", "λ\x00\x1f\"\\", " ", "tag\n"]))
scalars = st.one_of(
    st.none(), st.booleans(), ints, floats, text,
    st.sampled_from([member for kind in ENUMS for member in kind]),
    st.floats(width=32).map(np.float32), floats.map(np.float64),
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.bool_, np.int64]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
keys = st.one_of(text, ints, floats, st.booleans(), st.none(),
                 st.sampled_from(list(Direction)))


def reports(children):
    """Every report dataclass, each field filled with any value."""
    return st.one_of(*[
        st.builds(kind, **{f.name: children for f in dataclasses.fields(kind)})
        for kind in REPORT_TYPES
    ])


values = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        reports(children),
    ),
    max_leaves=12,
)


@st.composite
def redundancy_columns(draw):
    """A RedundancyColumns record of any length with any column values."""
    n = draw(st.integers(0, 4))
    ints = hnp.arrays(np.int64, n)
    directions = st.lists(st.sampled_from(list(Direction)), min_size=n, max_size=n)
    return RedundancyColumns(
        draw(ints), np.array(draw(directions), dtype=object),
        draw(ints), draw(ints), draw(hnp.arrays(np.float64, n, elements=floats)),
        draw(hnp.arrays(np.bool_, n)),
    )


def column_rows(record):
    """The rows of a RedundancyColumns record, one field dict per pair."""
    names = [f.name for f in dataclasses.fields(record)]
    columns = [getattr(record, name).tolist() for name in names]
    return [dict(zip(names, row)) for row in zip(*columns)]


class TestWriterMatchesTheGenericDump:
    @given(values)
    def test_any_value(self, value):
        assert emit_report(value) == reference_text(value)

    @given(reports(st.one_of(scalars, arrays)))
    def test_every_report_dataclass(self, report):
        assert emit_report(report) == reference_text(report)

    @given(st.dictionaries(keys, values, max_size=3), text)
    def test_payload_dicts_with_a_model_tag(self, payload, tag):
        payload["model_tag"] = tag
        assert emit_report(payload) == reference_text(payload)

    def test_empty_containers_and_nesting(self):
        for value in ([], (), {}, [[]], {"a": {}}, [(), {}], np.zeros((0, 3)),
                      ComplementarityReport(())):
            assert emit_report(value) == reference_text(value)
        empty = RedundancyColumns(*[np.zeros(0)] * 6)
        assert emit_report({"x": [empty]}) == reference_text({"x": [[]]})

    @given(redundancy_columns(), st.sampled_from([0, 1, 2]))
    def test_redundancy_columns_are_written_as_rows(self, record, depth):
        """A column record gives the bytes of the list of its rows, as the
        per-pair dataclass it replaced gave, at any nesting depth."""
        value, rows = record, column_rows(record)
        for _ in range(depth):
            value, rows = {"pairs": value}, {"pairs": rows}
        assert emit_report(value) == reference_text(rows)

    def test_a_real_report_row(self):
        entry = KernelAnalysis(
            Direction.FORWARD, 3,
            SpectralSummary(0.1, 2.5, 0.0, math.inf, 0.0625, 7.0, True),
            Categorization(FilterClass.LOW_PASS, FilterClass.BAND_PASS, None,
                           Confidence.WEAK),
        )
        payload = {"report": "analysis", "n": 2**60 + 1,
                   "layers": [LayerReport(2, (entry, entry))]}
        assert emit_report(payload) == reference_text(payload)


class TestRedundancyColumnsAtSize:
    """Column records of the sizes and values real runs give, against the
    rows the per-pair dataclass gave."""

    @staticmethod
    def record():
        values = np.random.default_rng(64).standard_normal((2, 2, 64, 16))
        return analyze_redundancy(KernelBundle("m", values))

    def test_a_two_layer_record(self):
        record = self.record()
        assert len(record) == 8064 > _BLOCK_ROWS  # rows from more than one block
        assert record.redundant.any() and not record.redundant.all()
        assert emit_report(record) == reference_text(column_rows(record))

    def test_special_floats_in_the_similarity_column(self):
        record = self.record()
        specials = [math.nan, math.inf, -math.inf, -0.0]
        rows = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, len(record) - 1]
        for i, row in enumerate(rows):
            record.similarity[row] = specials[i % len(specials)]
        assert emit_report(record) == reference_text(column_rows(record))

    def test_one_row(self):
        record = RedundancyColumns(
            np.array([3]), np.array([Direction.BACKWARD], dtype=object),
            np.array([0]), np.array([1]), np.array([0.25]), np.array([False]))
        assert emit_report(record) == reference_text(column_rows(record))

    def test_int64_extremes(self):
        ints = np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64)
        record = RedundancyColumns(
            ints, np.array(list(Direction) + [Direction.FORWARD], dtype=object),
            ints[::-1].copy(), ints, np.array([0.5, 1.0, 1e-300]),
            np.array([True, False, True]))
        assert emit_report(record) == reference_text(column_rows(record))


class TestManifests:
    def test_bundle_manifest_is_the_indented_dump(self, tmp_path):
        values = np.arange(2 * 2 * 3 * 4, dtype=np.float64).reshape(2, 2, 3, 4)
        write_bundle(KernelBundle("tag é\x01", values), tmp_path)
        text = (tmp_path / "manifest.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_pair_manifest_is_the_indented_dump(self, tmp_path):
        reps = {"tök": np.ones(3), "b": np.zeros(3)}
        write_pair_dataset(reps, [("tök", "b", "x")], tmp_path)
        text = (tmp_path / "manifest.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
