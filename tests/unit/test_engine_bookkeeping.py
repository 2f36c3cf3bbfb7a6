"""The scalar engine's per-job bookkeeping: freed jobs, busy time, FD.

* **No garbage cycles.** A finished logical job and its copies are freed
  by reference counting: with the cyclic collector off and
  ``gc.DEBUG_SAVEALL`` on, a run leaves no ``Job`` or engine bookkeeping
  object for :func:`gc.collect` to find once its result is dropped.
* **Busy time from idle gaps.** A stats-only run derives each
  processor's busy ticks from its energy window and its idle-gap
  multiset; its ledger must equal the trace run's at every edge of that
  window.
* **FD only where a rule reads it.** The profile's
  ``reads_flexibility_degree`` names the tasks whose flexibility degree
  a stats-only run computes.
"""

from __future__ import annotations

import gc

from repro.energy.dvfs import DVFSConfig
from repro.faults.scenario import FaultScenario
from repro.harness.runner import RunSpec, run_scheme
from repro.model.job import Job
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import (
    MKSSDualPriority,
    MKSSHybrid,
    MKSSSelective,
    MKSSStatic,
    ReExecutionFP,
    SingleProcessorFP,
)
from repro.schedulers.base import run_policy
from repro.sim.engine import PRIMARY, SPARE, _LogicalJob
from repro.sim.trace import LogicalJobRecord
from repro.sim.validation import compare_ledgers, result_ledger
from repro.workload.acet import UniformActualTimes
from repro.workload.presets import fig1_taskset, fig5_taskset
from tests.policies import prepared

BOOKKEEPING_TYPES = (Job, _LogicalJob, LogicalJobRecord)


def run_both(taskset, make_policy, horizon_units, scenario=None, **kw):
    """The same run in trace mode and in stats-only mode."""
    base = taskset.timebase()
    horizon = horizon_units * base.ticks_per_unit
    return tuple(
        run_policy(
            taskset,
            make_policy(),
            horizon,
            base,
            scenario,
            collect_trace=collect,
            **kw,
        )
        for collect in (True, False)
    )


def leaked_bookkeeping(taskset, make_policy, horizon_units, scenario, check):
    """Objects of the engine's bookkeeping types that only the cyclic
    collector could free, after trace and stats runs whose results are
    dropped; ``check`` asserts on the trace run first, so the case really
    exercises what it names."""
    gc.collect()
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        trace_run, stats_run = run_both(
            taskset, make_policy, horizon_units, scenario
        )
        check(trace_run, stats_run)
        del trace_run, stats_run
        gc.collect()
        return sorted(
            {
                type(obj).__name__
                for obj in gc.garbage
                if isinstance(obj, BOOKKEEPING_TYPES)
            }
        )
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if enabled:
            gc.enable()


def trace_kinds(result):
    return {event.kind for event in result.trace.events}


class TestNoGarbageCycles:
    def test_dp_with_deferred_backups(self):
        taskset = fig1_taskset()

        def check(trace_run, stats_run):
            profile = prepared(MKSSDualPriority(), taskset, 60)
            assert any(rules.backup_offset > 0 for rules in profile.tasks)
            # Backups canceled by their main before or while running.
            assert "cancel" in trace_kinds(trace_run)

        assert leaked_bookkeeping(taskset, MKSSDualPriority, 60, None, check) == []

    def test_selective_under_a_permanent_fault(self):
        taskset = fig5_taskset()
        tick = 37 * taskset.timebase().ticks_per_unit

        def check(trace_run, stats_run):
            assert trace_run.permanent_fault == (PRIMARY, tick)
            assert "permanent-fault" in trace_kinds(trace_run)

        scenario = FaultScenario.permanent_only(processor=PRIMARY, tick=tick)
        assert leaked_bookkeeping(taskset, MKSSSelective, 90, scenario, check) == []

    def test_reexecution_with_recoveries_firing(self):
        def check(trace_run, stats_run):
            assert trace_run.transient_fault_count > 0
            assert "recovery" in trace_kinds(trace_run)
            assert stats_run.transient_fault_count == trace_run.transient_fault_count

        # Enough slack for a recovery to fit before the deadline.
        taskset = TaskSet([Task(10, 10, 2, 2, 3), Task(20, 20, 3, 1, 2)])
        scenario = FaultScenario(transient_rate=0.2, seed=1)
        assert leaked_bookkeeping(taskset, ReExecutionFP, 60, scenario, check) == []


def assert_same_ledger(trace_run, stats_run):
    assert stats_run.trace is None
    assert stats_run.stats.busy == trace_run.stats.busy
    assert compare_ledgers(result_ledger(trace_run), result_ledger(stats_run)) == []


class TestBusyTimeFromGaps:
    def test_copy_running_across_the_horizon(self):
        # Job 2 runs [10, 14) against a horizon at 12.
        taskset = TaskSet([Task(10, 10, 4, 1, 1)])
        trace_run, stats_run = run_both(taskset, SingleProcessorFP, 12)
        horizon = trace_run.horizon_ticks
        assert any(
            seg.start < horizon < seg.end for seg in trace_run.trace.segments
        )
        assert_same_ledger(trace_run, stats_run)
        per_unit = taskset.timebase().ticks_per_unit
        assert stats_run.stats.busy == [6 * per_unit, 0]

    def test_running_copy_lost_at_a_permanent_fault(self):
        # Kill the spare one tick into its first fault-free segment, so
        # that copy is running when the fault strikes.
        taskset = fig1_taskset()
        fault_free, _ = run_both(taskset, MKSSStatic, 20)
        first = min(
            (seg for seg in fault_free.trace.segments if seg.processor == SPARE),
            key=lambda seg: seg.start,
        )
        assert first.length > 1
        tick = first.start + 1
        scenario = FaultScenario.permanent_only(processor=SPARE, tick=tick)
        trace_run, stats_run = run_both(taskset, MKSSStatic, 20, scenario)
        assert any(
            seg.processor == SPARE and seg.end == tick
            for seg in trace_run.trace.segments
        )
        assert_same_ledger(trace_run, stats_run)

    def test_processor_that_never_runs(self):
        trace_run, stats_run = run_both(fig5_taskset(), SingleProcessorFP, 30)
        assert_same_ledger(trace_run, stats_run)
        assert stats_run.stats.busy[SPARE] == 0
        assert stats_run.stats.gap_counts[SPARE] == {trace_run.horizon_ticks: 1}

    def test_execution_time_model(self):
        trace_run, stats_run = run_both(
            fig5_taskset(),
            MKSSDualPriority,
            90,
            execution_time_fn=UniformActualTimes(0.3, seed=5),
        )
        assert_same_ledger(trace_run, stats_run)

    def test_dvfs_run_takes_the_per_speed_path(self):
        taskset = TaskSet([Task(20, 20, 2, 1, 4), Task(30, 30, 3, 1, 3)])
        run = RunSpec(horizon_cap_units=240, dvfs=DVFSConfig())
        trace_run, stats_run = (
            run_scheme(taskset, "MKSS_ST", None, run, collect_trace=collect).result
            for collect in (True, False)
        )
        assert stats_run.speed_plan is not None
        assert any(stats_run.stats.speed_busy)
        assert_same_ledger(trace_run, stats_run)


class TestFlexibilityDegreeReaders:
    @staticmethod
    def readers(policy, taskset):
        return prepared(policy, taskset, 60).reads_flexibility_degree

    def test_static_patterns_read_no_fd(self):
        taskset = fig5_taskset()
        assert self.readers(MKSSStatic(), taskset) == [False, False]
        assert self.readers(MKSSDualPriority(), taskset) == [False, False]
        assert self.readers(SingleProcessorFP(), taskset) == [False, False]

    def test_fd_rules_read_fd(self):
        taskset = fig5_taskset()
        assert self.readers(MKSSSelective(), taskset) == [True, True]
        assert self.readers(ReExecutionFP(), taskset) == [True, True]

    def test_hybrid_reads_fd_of_its_selective_tasks_only(self):
        profile = prepared(MKSSHybrid(), fig1_taskset(), 60)
        # Task 1 runs in selective mode, task 2 in DP mode.
        modes = [rules.classification for rules in profile.tasks]
        assert modes == ["fd", "pattern"]
        assert profile.reads_flexibility_degree == [True, False]
