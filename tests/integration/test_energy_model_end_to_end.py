"""End-to-end energy accounting on real schedules (paper power model)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.energy.accounting import energy_of
from repro.energy.power import PowerModel
from repro.harness.runner import PAPER_SCHEMES, RunSpec, run_scheme
from repro.schedulers import MKSSDualPriority
from repro.schedulers.base import run_policy


class TestPaperModelAccounting:
    def test_partition_on_real_run(self, fig1):
        base = fig1.timebase()
        horizon = 20 * base.ticks_per_unit
        result = run_policy(fig1, MKSSDualPriority(), horizon, base)
        report = energy_of(result.trace, base, horizon, PowerModel.paper_default())
        for processor in (0, 1):
            entry = report.per_processor[processor]
            assert (
                entry.busy_units + entry.idle_units + entry.sleep_units == 20
            )

    def test_fig1_dp_energy_under_paper_model(self, fig1):
        """Figure 1's schedule: 15 busy units; the long trailing gaps sleep
        (free), the sub-1ms gap on the spare idles at 0.1."""
        outcome = run_scheme(
            fig1,
            "MKSS_DP",
            run=RunSpec(
                horizon_cap_units=20, power_model=PowerModel.paper_default()
            ),
        )
        spare = outcome.energy.per_processor[1]
        assert spare.idle_units == Fraction(1)  # the [5,6) gap before J'12
        assert outcome.total_energy == pytest.approx(15 + 0.1)

    def test_transitions_counted(self, fig1):
        outcome = run_scheme(
            fig1, "MKSS_DP", run=RunSpec(horizon_cap_units=20)
        )
        total_transitions = sum(
            p.transition_count for p in outcome.energy.per_processor.values()
        )
        assert total_transitions >= 2  # both processors sleep at the tail

    def test_all_schemes_partition_and_order(self, fig5):
        totals = {}
        for scheme in PAPER_SCHEMES:
            outcome = run_scheme(
                fig5, scheme, run=RunSpec(horizon_cap_units=30)
            )
            totals[scheme] = outcome.total_energy
            for entry in outcome.energy.per_processor.values():
                assert (
                    entry.busy_units + entry.idle_units + entry.sleep_units
                    == 30
                )
        assert totals["MKSS_DP"] <= totals["MKSS_ST"]
        assert totals["MKSS_Selective"] <= totals["MKSS_ST"]

    def test_sleep_power_model_variant(self, fig1):
        leaky = PowerModel(
            active_power=1.0,
            idle_power=0.3,
            sleep_power=0.05,
            transition_energy=0.2,
            break_even=Fraction(2),
        )
        run = RunSpec(horizon_cap_units=20, power_model=leaky)
        outcome = run_scheme(fig1, "MKSS_DP", run=run)
        baseline = run_scheme(
            fig1, "MKSS_DP", run=RunSpec(horizon_cap_units=20)
        )
        assert outcome.total_energy > baseline.total_energy
