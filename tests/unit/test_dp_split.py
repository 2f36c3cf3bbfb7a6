"""Tests for MKSS_DP's main-placement strategies."""

from __future__ import annotations

import pytest

from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import MKSSDualPriority
from repro.schedulers.base import run_policy
from repro.sim.engine import PRIMARY, SPARE
from tests.policies import prepared


def run(ts, policy, horizon_units):
    base = ts.timebase()
    return run_policy(ts, policy, horizon_units * base.ticks_per_unit, base)


def mains(ts, policy):
    """Each task's main processor in the policy's profile for ``ts``."""
    return [rules.main_processor for rules in prepared(policy, ts, 40).tasks]


class TestSplitStrategies:
    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            MKSSDualPriority(split_strategy="random")

    def test_alternate_matches_figure1(self, fig1, active_runner):
        _, energy = active_runner(
            fig1, MKSSDualPriority(split_strategy="alternate"), 20
        )
        assert energy == 15

    def test_balance_spreads_heavy_tasks(self):
        """Two heavy tasks and two light ones: balance puts one heavy on
        each processor, alternate puts both heavies on the primary."""
        ts = TaskSet(
            [
                Task(10, 10, 4, 1, 2, name="heavy1"),
                Task(40, 40, 1, 1, 4, name="light1"),
                Task(10, 10, 4, 1, 2, name="heavy2"),
                Task(40, 40, 1, 1, 4, name="light2"),
            ]
        )
        balance = mains(ts, MKSSDualPriority(split_strategy="balance"))
        assert {balance[0], balance[2]} == {PRIMARY, SPARE}

        alternate = mains(ts, MKSSDualPriority(split_strategy="alternate"))
        assert alternate[0] == alternate[2]

    def test_balance_keeps_mk(self, fig1, fig5):
        for ts, horizon in ((fig1, 20), (fig5, 30)):
            result = run(ts, MKSSDualPriority(split_strategy="balance"), horizon)
            assert result.all_mk_satisfied()

    def test_balance_under_permanent_fault(self, fig1):
        from repro.faults.scenario import FaultScenario

        base = fig1.timebase()
        for processor in (PRIMARY, SPARE):
            result = run_policy(
                fig1,
                MKSSDualPriority(split_strategy="balance"),
                20 * base.ticks_per_unit,
                base,
                FaultScenario.permanent_only(processor=processor, tick=4),
            )
            assert result.all_mk_satisfied()

    def test_no_split_ignores_strategy(self):
        policy = MKSSDualPriority(split_mains=False, split_strategy="balance")
        ts = TaskSet([Task(10, 10, 1, 1, 2), Task(10, 10, 1, 1, 2)])
        assert mains(ts, policy) == [PRIMARY, PRIMARY]
