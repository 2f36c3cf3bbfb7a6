"""Unit tests for repro.energy.dpd."""

from __future__ import annotations

from fractions import Fraction

from repro.energy.dpd import shutdown_decision
from repro.energy.power import PowerModel


class TestShutdownDecision:
    def test_gap_below_break_even_stays_idle(self):
        model = PowerModel.paper_default()  # T_be = 1
        assert not shutdown_decision(Fraction(1, 2), model)
        assert not shutdown_decision(Fraction(1), model)

    def test_gap_above_break_even_sleeps(self):
        model = PowerModel.paper_default()
        assert shutdown_decision(Fraction(3, 2), model)

    def test_transition_cost_blocks_marginal_shutdown(self):
        model = PowerModel(
            idle_power=0.1, sleep_power=0.0, transition_energy=10.0,
            break_even=Fraction(1),
        )
        assert not shutdown_decision(Fraction(2), model)  # 10 > 0.2
        assert shutdown_decision(Fraction(200), model)  # 10 < 20

    def test_zero_power_model_still_follows_tbe_rule(self):
        model = PowerModel.active_only()
        assert shutdown_decision(Fraction(1, 100), model)

    def test_zero_power_with_transition_cost_never_sleeps(self):
        # Regression: with idle == sleep == 0 but a positive transition
        # energy, sleeping is a strict net loss; the zero-power tie-break
        # must not force a shutdown.
        model = PowerModel(
            idle_power=0.0,
            sleep_power=0.0,
            transition_energy=5.0,
            break_even=Fraction(1),
        )
        assert not shutdown_decision(Fraction(2), model)
        assert not shutdown_decision(Fraction(10**6), model)

    def test_zero_power_free_transition_still_sleeps(self):
        model = PowerModel(
            idle_power=0.0,
            sleep_power=0.0,
            transition_energy=0.0,
            break_even=Fraction(1),
        )
        assert shutdown_decision(Fraction(2), model)

    def test_exact_arithmetic_beyond_float_precision(self):
        # Regression: the costs used to be compared in floats, where a
        # gap of 2**53 + 1 units is indistinguishable from 2**53, so
        # this marginally profitable shutdown (saving exactly one
        # idle-power unit) tied and was wrongly refused.  Fraction
        # arithmetic keeps the strict inequality.
        model = PowerModel(
            idle_power=1.0,
            sleep_power=0.0,
            transition_energy=float(2**53),
            break_even=Fraction(1),
        )
        assert shutdown_decision(Fraction(2**53 + 1), model)
        # The exact tie (costs equal) must still refuse to sleep.
        assert not shutdown_decision(Fraction(2**53), model)

    def test_fractional_gap_stays_exact(self):
        # 1/3 of a unit cannot be represented in binary floating point;
        # the rule must not accumulate round-off on such gaps.
        model = PowerModel(
            idle_power=3.0,
            sleep_power=0.0,
            transition_energy=1.0,
            break_even=Fraction(1, 100),
        )
        assert not shutdown_decision(Fraction(1, 3), model)  # 1 == 1: tie
        assert shutdown_decision(Fraction(1, 3) + Fraction(1, 10**18), model)
