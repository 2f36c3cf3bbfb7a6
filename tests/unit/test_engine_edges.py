"""Edge-case tests for the engine: sticky optionals, ties, determinism."""

from __future__ import annotations

import pytest

from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import MKSSGreedy, MKSSSelective, MKSSStatic
from repro.schedulers.base import run_policy
from repro.sim.engine import PRIMARY
from repro.sim.profile import TaskProfile
from tests.policies import ProfilePolicy

#: The FD rule with every optional on the primary: each (1,2) task below
#: releases one job, at FD 1, so it is a single optional copy there.
OPTIONALS = TaskProfile("fd", fd_max=None)


def OptionalOnly():
    """Every job is a single non-preemptive optional on the primary."""
    return ProfilePolicy(OPTIONALS, name="optional-only", optional_preemption=False)


def OptionalThenMandatory():
    """Task 1's job is a non-preemptive optional on the primary; every
    other task's jobs are single mandatory mains there."""
    return ProfilePolicy(
        lambda index, task: OPTIONALS if index == 0 else TaskProfile("all"),
        name="mixed",
        optional_preemption=False,
    )


class TestStickyOptionals:
    def test_sticky_holds_against_more_urgent_arrival(self):
        """Non-preemptive: a later, more urgent optional must wait."""
        ts = TaskSet(
            [
                Task(20, 20, 4, 1, 2, name="urgentish"),
                Task(20, 20, 6, 1, 2, name="holder"),
            ]
        )
        # Make the low-priority task arrive first by making the high
        # priority job's release later via its period: both release at 0
        # here, so the high-priority one runs first; instead check that
        # once the holder starts (after the urgent one), nothing splits it.
        result = run_policy(ts, OptionalOnly(), 20)
        segments = result.trace.segments_on(PRIMARY)
        holder_segments = [s for s in segments if s.task_index == 1]
        assert len(holder_segments) == 1  # ran in one piece

    def test_sticky_preempted_by_mandatory_then_resumes(self):
        ts = TaskSet(
            [
                Task(50, 50, 20, 1, 2, name="long_optional"),
                Task(10, 10, 2, 2, 2, name="mandatory"),
            ]
        )
        # tau2's mandatory jobs (release 0, 10, 20, ...) preempt; the
        # optional resumes in between and completes.
        result = run_policy(ts, OptionalThenMandatory(), 50)
        optional_ticks = sum(
            s.length for s in result.trace.segments if s.task_index == 0
        )
        assert optional_ticks == 20
        assert result.trace.records[(0, 1)].effective

    def test_sticky_abandoned_when_infeasible_after_preemption(self):
        # The optional has deadline 12 and needs 10; mandatory load makes
        # it infeasible after the first preemption.
        ts = TaskSet(
            [
                Task(20, 12, 10, 1, 2, name="doomed_optional"),
                Task(4, 4, 3, 2, 2, name="mandatory"),
            ]
        )
        result = run_policy(ts, OptionalThenMandatory(), 20)
        assert not result.trace.records[(0, 1)].effective
        # It must not execute after its deadline.
        late = [
            s
            for s in result.trace.segments
            if s.task_index == 0 and s.end > 12
        ]
        assert late == []


class TestTies:
    def test_completion_exactly_at_deadline_is_met(self):
        ts = TaskSet([Task(10, 3, 3, 1, 1)])
        result = run_policy(ts, MKSSStatic(), 10)
        assert result.trace.outcomes_for_task(0) == [True]

    def test_release_at_horizon_excluded(self):
        ts = TaskSet([Task(5, 5, 1, 1, 2)])
        result = run_policy(ts, MKSSStatic(), 10)
        assert result.released_jobs == 2  # releases 0 and 5; 10 excluded

    def test_permanent_fault_at_exact_completion_tick(self, fig1):
        """Fault at t=3 (J11's completion): the completed work counts."""
        from repro.faults.scenario import FaultScenario

        scenario = FaultScenario.permanent_only(processor=PRIMARY, tick=3)
        result = run_policy(
            fig1, MKSSStatic(), 20 * fig1.timebase().ticks_per_unit,
            scenario=scenario,
        )
        assert result.all_mk_satisfied()


class TestDeterminism:
    @pytest.mark.parametrize("scheme", [MKSSStatic, MKSSSelective, MKSSGreedy])
    def test_identical_runs_identical_traces(self, fig3, scheme):
        base = fig3.timebase()
        horizon = 50 * base.ticks_per_unit
        a = run_policy(fig3, scheme(), horizon, base)
        b = run_policy(fig3, scheme(), horizon, base)
        seg_a = [(s.processor, s.start, s.end, s.task_index) for s in a.trace.segments]
        seg_b = [(s.processor, s.start, s.end, s.task_index) for s in b.trace.segments]
        assert seg_a == seg_b

    def test_seeded_faults_reproducible(self, fig1):
        from repro.faults.scenario import FaultScenario

        base = fig1.timebase()
        horizon = 20 * base.ticks_per_unit
        runs = [
            run_policy(
                fig1,
                MKSSSelective(),
                horizon,
                base,
                FaultScenario.permanent_and_transient(seed=42),
            )
            for _ in range(2)
        ]
        assert runs[0].permanent_fault == runs[1].permanent_fault
        assert runs[0].busy_ticks() == runs[1].busy_ticks()
