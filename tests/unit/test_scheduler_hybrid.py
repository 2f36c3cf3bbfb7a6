"""Unit tests for the MKSS_Hybrid extension scheme."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.faults.scenario import FaultScenario
from repro.model.mk import MKConstraint
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import (
    MKSSDualPriority,
    MKSSHybrid,
    MKSSSelective,
    selective_execution_rate,
)
from repro.schedulers.base import run_policy
from tests.policies import prepared


class TestSelectiveExecutionRate:
    @pytest.mark.parametrize(
        "m,k,expected",
        [
            (1, 2, Fraction(1)),
            (2, 4, Fraction(2, 3)),
            (1, 3, Fraction(1, 2)),
            (1, 10, Fraction(1, 9)),
            (3, 5, Fraction(3, 4)),
            (9, 10, Fraction(1)),
        ],
    )
    def test_known_rates(self, m, k, expected):
        assert selective_execution_rate(MKConstraint(m, k)) == expected

    def test_closed_form_m_over_k_minus_1(self):
        """Empirical law: the FD=1 rule executes m of every k-1 jobs."""
        for k in range(2, 15):
            for m in range(1, k):
                rate = selective_execution_rate(MKConstraint(m, k))
                assert rate == Fraction(m, k - 1)

    def test_rate_at_least_mandatory_rate(self):
        for k in range(2, 12):
            for m in range(1, k):
                assert selective_execution_rate(
                    MKConstraint(m, k)
                ) >= Fraction(m, k)


def _run(ts, policy, horizon_units, scenario=None):
    base = ts.timebase()
    return run_policy(
        ts, policy, horizon_units * base.ticks_per_unit, base, scenario
    )


def _modes(ts, horizon_units):
    """Each task's offline mode: its profile's classification, ``"fd"``
    for selective mode and ``"pattern"`` for DP mode."""
    profile = prepared(MKSSHybrid(), ts, horizon_units)
    return [rules.classification for rules in profile.tasks]


class TestModeSelection:
    def test_modes_assigned_after_prepare(self, fig1):
        result = _run(fig1, MKSSHybrid(), 20)
        assert result.all_mk_satisfied()
        assert set(_modes(fig1, 20)) <= {"fd", "pattern"}

    def test_low_overlap_task_prefers_dp(self):
        """A (1,2) task with a tiny WCET: S=1 doubles its executions while
        its postponed backup never runs -> DP mode must win."""
        ts = TaskSet([Task(50, 50, 1, 1, 2)])
        assert _modes(ts, 100) == ["pattern"]

    def test_tight_task_prefers_selective(self, fig1):
        """Figure 1's τ1 has θ=1 and heavy overlap: selective mode wins."""
        assert _modes(fig1, 20)[0] == "fd"


class TestHybridBehaviour:
    def test_mk_satisfied_fault_free(self, fig1, fig3, fig5):
        for ts, horizon in ((fig1, 20), (fig3, 25), (fig5, 30)):
            result = _run(ts, MKSSHybrid(), horizon)
            assert result.all_mk_satisfied()

    def test_mk_satisfied_under_permanent_fault(self, fig1):
        for processor in (0, 1):
            scenario = FaultScenario.permanent_only(processor=processor, tick=6)
            result = _run(fig1, MKSSHybrid(), 20, scenario)
            assert result.all_mk_satisfied()

    def test_beats_or_matches_both_parents_on_mixed_workload(self):
        """On a set mixing a DP-friendly and a selective-friendly task the
        hybrid should cost no more than either pure scheme."""
        ts = TaskSet(
            [
                Task(5, 4, 3, 2, 4),    # tight: selective-friendly
                Task(50, 50, 1, 1, 2),  # slack (1,2): DP-friendly
            ]
        )
        hybrid = _run(ts, MKSSHybrid(), 100).busy_ticks()
        dp = _run(ts, MKSSDualPriority(), 100).busy_ticks()
        selective = _run(ts, MKSSSelective(), 100).busy_ticks()
        assert hybrid <= dp
        assert hybrid <= selective

    def test_registered_in_harness(self, fig1):
        from repro.harness.runner import run_scheme

        outcome = run_scheme(fig1, "MKSS_Hybrid")
        assert outcome.metrics.mk_violations == 0
