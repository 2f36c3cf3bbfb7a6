"""Unit tests for the harness runner."""

from __future__ import annotations

import pytest

from repro.energy.power import PowerModel
from repro.faults.scenario import FaultScenario
from repro.harness.runner import (
    PAPER_SCHEMES,
    SCHEME_FACTORIES,
    RunSpec,
    run_scheme,
)


class TestSchemeRegistry:
    def test_paper_schemes_registered(self):
        for scheme in PAPER_SCHEMES:
            assert scheme in SCHEME_FACTORIES

    def test_factories_produce_fresh_policies(self):
        a = SCHEME_FACTORIES["MKSS_Selective"]()
        b = SCHEME_FACTORIES["MKSS_Selective"]()
        assert a is not b

    def test_ablation_variants_present(self):
        for name in (
            "MKSS_Greedy",
            "MKSS_Selective_NoAlt",
            "MKSS_Selective_FD2",
            "MKSS_Selective_NoTheta",
        ):
            assert name in SCHEME_FACTORIES


class TestRunScheme:
    def test_unknown_scheme_raises(self, fig1):
        with pytest.raises(KeyError):
            run_scheme(fig1, "MKSS_Bogus")

    def test_unknown_scheme_is_also_a_repro_error(self, fig1):
        # harness callers catch ReproError; registry lookups historically
        # surfaced KeyError -- UnknownSchemeError is both.
        from repro.errors import ReproError, UnknownSchemeError

        with pytest.raises(UnknownSchemeError) as excinfo:
            run_scheme(fig1, "MKSS_Bogus")
        assert isinstance(excinfo.value, ReproError)
        assert "unknown scheme 'MKSS_Bogus'" in str(excinfo.value)

    def test_outcome_fields(self, fig1):
        outcome = run_scheme(fig1, "MKSS_ST")
        assert outcome.scheme == "MKSS_ST"
        assert outcome.total_energy > 0
        assert outcome.metrics.mk_violations == 0
        assert outcome.result.policy_name == "MKSS_ST"

    def test_horizon_cap_respected(self, fig1):
        outcome = run_scheme(
            fig1, "MKSS_ST", run=RunSpec(horizon_cap_units=10)
        )
        assert outcome.result.horizon_ticks == 10

    def test_active_only_power_model(self, fig1):
        outcome = run_scheme(
            fig1, "MKSS_DP", run=RunSpec(power_model=PowerModel.active_only())
        )
        assert outcome.total_energy == pytest.approx(15.0)

    def test_scenario_threads_through(self, fig1):
        scenario = FaultScenario.permanent_only(processor=0, tick=3)
        outcome = run_scheme(fig1, "MKSS_ST", scenario=scenario)
        assert outcome.result.permanent_fault == (0, 3)

    def test_selective_beats_st_on_fig1(self, fig1):
        st = run_scheme(
            fig1, "MKSS_ST", run=RunSpec(power_model=PowerModel.active_only())
        )
        sel = run_scheme(
            fig1,
            "MKSS_Selective",
            run=RunSpec(power_model=PowerModel.active_only()),
        )
        assert sel.total_energy < st.total_energy
