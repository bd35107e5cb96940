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
    RedundancyPair,
    ShiftEntry,
    ShiftReport,
)
from spectrobe.classify import Categorization, Confidence, FilterClass
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
    RedundancyPair, Cluster, MergeRecord, ProbeResult, BuiltPairs, EvalResult,
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
                      ComplementarityReport(()), {"x": [RedundancyPair(
                          1, Direction.BACKWARD, 0, 1, -0.0, False)]}):
            assert emit_report(value) == reference_text(value)

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
