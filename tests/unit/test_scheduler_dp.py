"""Unit tests for MKSS_DP (preference-oriented dual priority)."""

from __future__ import annotations

import pytest

from repro.faults.scenario import FaultScenario
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import MKSSDualPriority, MKSSStatic
from repro.sim.engine import PRIMARY, SPARE
from tests.policies import prepared

FIVE_TASKS = TaskSet([Task(10, 10, 1, 1, 2)] * 5)


def mains(policy):
    return [rules.main_processor for rules in prepared(policy, FIVE_TASKS).tasks]


class TestMainPlacement:
    def test_alternating_assignment(self):
        assert mains(MKSSDualPriority())[:3] == [PRIMARY, SPARE, PRIMARY]

    def test_no_split_mode(self):
        assert mains(MKSSDualPriority(split_mains=False)) == [PRIMARY] * 5


class TestEnergyBehaviour:
    def test_dp_never_exceeds_st(self, fig1, fig5, active_runner):
        for ts, horizon in ((fig1, 20), (fig5, 30)):
            _, st = active_runner(ts, MKSSStatic(), horizon)
            _, dp = active_runner(ts, MKSSDualPriority(), horizon)
            assert dp <= st

    def test_backups_postponed_by_promotion(self, fig1, active_runner):
        result, _ = active_runner(fig1, MKSSDualPriority(), 20)
        backups = [s for s in result.trace.segments if s.role == "backup"]
        # Promotion time is 1 for both tasks: no backup starts at its
        # nominal release.
        starts = {
            (s.task_index, s.job_index): s.start
            for s in sorted(backups, key=lambda s: s.start)
        }
        for (task_index, job_index), start in starts.items():
            period = [5, 10][task_index]
            release = (job_index - 1) * period
            assert start >= release + 1

    def test_no_split_still_meets_mk(self, fig1, active_runner):
        result, _ = active_runner(
            fig1, MKSSDualPriority(split_mains=False), 20
        )
        assert result.all_mk_satisfied()

    def test_mk_under_permanent_fault(self, fig1, active_runner):
        for processor in (0, 1):
            scenario = FaultScenario.permanent_only(
                processor=processor, tick=7
            )
            result, _ = active_runner(
                fig1, MKSSDualPriority(), 20, scenario=scenario
            )
            assert result.all_mk_satisfied()

    def test_fault_mode_uses_survivor_only(self, fig1, active_runner):
        scenario = FaultScenario.permanent_only(processor=PRIMARY, tick=0)
        result, _ = active_runner(fig1, MKSSDualPriority(), 20, scenario=scenario)
        assert result.busy_ticks(PRIMARY) == 0
        assert result.busy_ticks(SPARE) > 0

    def test_three_task_set_runs_clean(self, active_runner):
        ts = TaskSet(
            [
                Task(5, 5, 1, 1, 2),
                Task(10, 10, 2, 2, 3),
                Task(20, 20, 3, 1, 4),
            ]
        )
        result, _ = active_runner(ts, MKSSDualPriority(), 40)
        assert result.all_mk_satisfied()
        result.trace.validate()
