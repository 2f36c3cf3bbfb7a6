"""Tests for the unified experiment-protocol config object."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import ConfigurationError
from repro.harness.protocol import (
    DEFAULT_BINS,
    ENV_HORIZON,
    ENV_SETS,
    PAPER_TARGETS,
    ExperimentProtocol,
)
from repro.workload.generator import GeneratorConfig


class TestScales:
    def test_documented_scale_matches_experiments_md(self):
        proto = ExperimentProtocol.documented()
        assert proto.sets_per_bin == 15
        assert proto.horizon_cap_units == 1500
        assert proto.seed == 20200309

    def test_smoke_scale_matches_bench_defaults(self):
        proto = ExperimentProtocol.smoke()
        assert proto.sets_per_bin == 5
        assert proto.horizon_cap_units == 1000
        assert proto.seed == 20200309

    def test_smoke_overrides_win(self):
        proto = ExperimentProtocol.smoke(sets_per_bin=7)
        assert proto.sets_per_bin == 7
        assert proto.horizon_cap_units == 1000

    def test_default_bins_are_the_paper_axis(self):
        assert proto_bins_ok(ExperimentProtocol.documented().bins)

    def test_paper_targets_cover_all_panels(self):
        assert set(PAPER_TARGETS) == {"fig6a", "fig6b", "fig6c"}
        assert PAPER_TARGETS["fig6a"] > PAPER_TARGETS["fig6b"] > PAPER_TARGETS["fig6c"]


def proto_bins_ok(bins):
    return bins == DEFAULT_BINS and bins[0] == (0.1, 0.2) and bins[-1] == (0.9, 1.0)


class TestEnvOverrides:
    def test_env_sets_and_horizon(self):
        proto = ExperimentProtocol.documented().with_env_overrides(
            {ENV_SETS: "3", ENV_HORIZON: "250"}
        )
        assert proto.sets_per_bin == 3
        assert proto.horizon_cap_units == 250

    def test_empty_env_is_identity(self):
        base = ExperimentProtocol.documented()
        assert base.with_env_overrides({}) is base

    def test_blank_values_ignored(self):
        base = ExperimentProtocol.documented()
        assert base.with_env_overrides({ENV_SETS: ""}) is base


class TestValidation:
    def test_rejects_zero_sets(self):
        with pytest.raises(ConfigurationError):
            ExperimentProtocol(sets_per_bin=0)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ConfigurationError):
            ExperimentProtocol(horizon_cap_units=0)

    def test_rejects_negative_break_even(self):
        with pytest.raises(ConfigurationError):
            ExperimentProtocol(break_even_units=-1)

    def test_break_even_coerced_to_fraction(self):
        proto = ExperimentProtocol(break_even_units="1/2")
        assert proto.break_even_units == Fraction(1, 2)


class TestPowerModel:
    def test_default_break_even_is_paper_model(self):
        # The paper's model normalizes to None, so it stays out of keys.
        assert ExperimentProtocol().run_spec().power_model is None

    def test_changed_break_even_is_not_default(self):
        proto = ExperimentProtocol(break_even_units=Fraction(2))
        assert proto.run_spec().power_model == proto.power_model()
        assert proto.power_model().break_even == proto.break_even_units


class TestReplaceAndSeeds:
    def test_replace_copies(self):
        base = ExperimentProtocol.documented()
        varied = base.replace(horizon_cap_units=300)
        assert varied.horizon_cap_units == 300
        assert base.horizon_cap_units == 1500

    def test_scenario_seed_bases(self):
        proto = ExperimentProtocol()
        assert proto.scenario_seed_base("fig6b") == proto.permanent_seed_base
        assert proto.scenario_seed_base("fig6c") == proto.transient_seed_base
        with pytest.raises(ConfigurationError):
            proto.scenario_seed_base("fig6a")

    def test_as_dict_is_jsonable(self):
        import json

        proto = ExperimentProtocol(generator=GeneratorConfig(k_range=(2, 6)))
        doc = json.loads(json.dumps(proto.as_dict()))
        assert doc["sets_per_bin"] == 15
        assert doc["generator"]["k_range"] == "(2, 6)"
