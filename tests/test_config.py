import json

import numpy as np
import pytest

from helpers import class_pair_bundle
from spectrobe import (
    DEFAULT_CONFIG,
    Direction,
    FilterClass,
    Kernel,
    KernelBundle,
    RunConfig,
    analyze_bundle,
    analyze_redundancy,
    config_from_mapping,
    load_config,
)

LOW = FilterClass.LOW_PASS
HIGH = FilterClass.HIGH_PASS


def impulse_bundle(length=100):
    kernels = [
        Kernel(np.eye(length)[0], layer=1, direction=d)
        for d in (Direction.FORWARD, Direction.BACKWARD)
    ]
    return KernelBundle.from_kernels("impulse", kernels)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg == DEFAULT_CONFIG
        assert cfg.sc_low_bound == 1 / 6
        assert cfg.sc_high_bound == 1 / 3
        assert cfg.lhfr_low_pass_min == 10.0
        assert cfg.lhfr_high_pass_max == 1.0
        assert cfg.low_band_fraction == 0.10
        assert cfg.high_band_fraction == 0.40
        assert cfg.shift_threshold == 0.05
        assert cfg.redundancy_cutoff == 0.95

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sc_low_bound": 0.0},
            {"sc_low_bound": 0.4, "sc_high_bound": 0.3},
            {"sc_high_bound": 0.6},
            {"lhfr_high_pass_max": 0.0},
            {"lhfr_low_pass_min": 0.5},
            {"low_band_fraction": 1.0},
            {"high_band_fraction": -0.1},
            {"low_band_fraction": 0.6, "high_band_fraction": 0.6},
            {"shift_threshold": -0.01},
            {"redundancy_cutoff": 0.0},
            {"redundancy_cutoff": 1.1},
            {"shift_threshold": float("nan")},
            {"shift_threshold": float("inf")},
            {"lhfr_low_pass_min": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(**{**vars_of_defaults(), **overrides})


def vars_of_defaults():
    import dataclasses

    return {
        f.name: getattr(DEFAULT_CONFIG, f.name)
        for f in dataclasses.fields(RunConfig)
    }


class TestConfigFromMapping:
    def test_empty_mapping_is_defaults(self):
        assert config_from_mapping({}) == DEFAULT_CONFIG

    def test_partial_override(self):
        cfg = config_from_mapping({"shift_threshold": 0.2})
        assert cfg.shift_threshold == 0.2
        assert cfg.sc_low_bound == DEFAULT_CONFIG.sc_low_bound

    def test_unknown_keys_are_named(self):
        with pytest.raises(ValueError, match="centroid_cutoff"):
            config_from_mapping({"centroid_cutoff": 0.1})

    def test_non_numeric_values_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            config_from_mapping({"shift_threshold": "big"})
        with pytest.raises(ValueError, match="must be a number"):
            config_from_mapping({"shift_threshold": True})

    @pytest.mark.parametrize(
        "key, value",
        [("shift_threshold", float("nan")), ("lhfr_low_pass_min", float("inf")),
         ("redundancy_cutoff", 10**400)],
        ids=["nan", "infinity", "huge-int"],
    )
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}' must be a finite number"):
            config_from_mapping({key: value})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            config_from_mapping([1, 2])

    def test_integers_become_floats(self):
        cfg = config_from_mapping({"lhfr_low_pass_min": 12})
        assert cfg.lhfr_low_pass_min == 12.0
        assert isinstance(cfg.lhfr_low_pass_min, float)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps({"redundancy_cutoff": 0.8}))
        assert load_config(path).redundancy_cutoff == 0.8

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="broken.json"):
            load_config(path)

    def test_unknown_key_names_the_file(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"mystery": 1}))
        with pytest.raises(ValueError, match="extra.json"):
            load_config(path)


class TestOverridesReachThePipeline:
    """Each threshold moves exactly the verdict it governs."""

    def test_band_fractions(self):
        entry = analyze_bundle(impulse_bundle())[0].entries[0]
        assert (entry.summary.e_low, entry.summary.e_high) == (6.0, 21.0)
        wide = analyze_bundle(
            impulse_bundle(), RunConfig(low_band_fraction=0.2, high_band_fraction=0.2)
        )[0].entries[0]
        assert (wide.summary.e_low, wide.summary.e_high) == (11.0, 11.0)

    def test_centroid_bounds(self):
        # the impulse centroid sits at 0.25, band-pass by default
        entry = analyze_bundle(impulse_bundle())[0].entries[0]
        assert entry.categorization.by_centroid is FilterClass.BAND_PASS
        moved = analyze_bundle(
            impulse_bundle(), RunConfig(sc_high_bound=0.2)
        )[0].entries[0]
        assert moved.categorization.by_centroid is HIGH

    def test_lhfr_bounds(self):
        # flat spectrum ratio is 6/21, high-pass by default
        entry = analyze_bundle(impulse_bundle())[0].entries[0]
        assert entry.categorization.by_lhfr is HIGH
        moved = analyze_bundle(
            impulse_bundle(), RunConfig(lhfr_high_pass_max=0.2)
        )[0].entries[0]
        assert moved.categorization.by_lhfr is FilterClass.BAND_PASS

    def test_redundancy_cutoff(self):
        rng = np.random.default_rng(20)
        base = rng.standard_normal(64)
        near = base + 0.05 * rng.standard_normal(64)
        kernels = []
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            kernels.append(Kernel(base, layer=1, direction=direction, kernel_index=0))
            kernels.append(Kernel(near, layer=1, direction=direction, kernel_index=1))
        bundle = KernelBundle.from_kernels("m", kernels)
        assert analyze_redundancy(bundle)[0].redundant
        sim = analyze_redundancy(bundle)[0].similarity
        assert not analyze_redundancy(
            bundle, RunConfig(redundancy_cutoff=min(1.0, sim + 1e-9))
        )[0].redundant
