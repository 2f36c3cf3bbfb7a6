"""Unit tests for the standby-sparing engine's core behaviours."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.model.job import JobRole
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import MKSSDualPriority, MKSSStatic, SingleProcessorFP
from repro.sim.engine import PRIMARY, SPARE, StandbySparingEngine
from repro.sim.profile import TaskProfile
from tests.policies import ProfilePolicy, skip_all


def EveryJobBothProcs():
    """Test policy: every job mandatory, main+backup, no postponement
    (after a fault, one main on the survivor)."""
    return ProfilePolicy(TaskProfile("all", backup_offset=0), name="test-both")


@pytest.fixture
def one_task():
    return TaskSet([Task(10, 10, 4, 1, 2)])


class TestBasicExecution:
    def test_single_fp_job_runs_once(self, one_task):
        engine = StandbySparingEngine(one_task, SingleProcessorFP(), 10)
        result = engine.run()
        assert result.busy_ticks(0) == 4
        assert result.busy_ticks(1) == 0
        assert result.all_mk_satisfied()

    def test_preemption_by_higher_priority(self):
        ts = TaskSet([Task(4, 4, 2, 2, 2), Task(12, 12, 5, 2, 2)])
        engine = StandbySparingEngine(ts, SingleProcessorFP(), 12)
        result = engine.run()
        # tau2 runs in the gaps [2,4), [6,8), [10,11); completes at 11 <= 12.
        segments = [
            (s.start, s.end)
            for s in result.trace.segments_on(0)
            if s.task_index == 1
        ]
        assert segments == [(2, 4), (6, 8), (10, 11)]
        assert result.all_mk_satisfied()

    def test_horizon_cuts_releases_strictly(self, one_task):
        engine = StandbySparingEngine(one_task, SingleProcessorFP(), 10)
        result = engine.run()
        assert result.released_jobs == 1  # release at 10 excluded

    def test_bad_horizon_rejected(self, one_task):
        with pytest.raises(ConfigurationError):
            StandbySparingEngine(one_task, SingleProcessorFP(), 0)

    def test_trace_never_overlaps(self, fig1):
        engine = StandbySparingEngine(fig1, MKSSDualPriority(), 20)
        result = engine.run()
        result.trace.validate()


class TestCancellation:
    def test_backup_canceled_on_main_success(self, one_task):
        engine = StandbySparingEngine(one_task, EveryJobBothProcs(), 10)
        result = engine.run()
        # Both copies start at 0 on identical processors and complete
        # together: no cancellation savings, 4 ticks each.
        assert result.busy_ticks(0) == 4
        assert result.busy_ticks(1) == 4

    def test_backup_cancellation_saves_when_delayed(self):
        """A higher-priority task delays the backup; the main's success
        cancels it before it ever runs."""
        ts = TaskSet([Task(10, 10, 4, 2, 2), Task(10, 10, 3, 2, 2)])
        engine = StandbySparingEngine(ts, EveryJobBothProcs(), 10)
        result = engine.run()
        # Primary: tau1 [0,4), tau2 [4,7).  Spare mirrors it, so backups
        # finish at the same instants and no energy is saved; totals equal.
        assert result.busy_ticks(0) == 7
        assert result.busy_ticks(1) == 7

    def test_fault_mode_runs_single_copies(self, one_task):
        engine = StandbySparingEngine(
            one_task, EveryJobBothProcs(), 30, permanent_fault=(SPARE, 5)
        )
        result = engine.run()
        assert result.all_mk_satisfied()
        # After tick 5 nothing runs on the spare.
        assert all(
            s.end <= 5 for s in result.trace.segments_on(SPARE)
        )


class TestTransientFaults:
    def test_faulted_main_forces_backup_to_complete(self, one_task):
        faulted_once = {"done": False}

        def fault_main_once(job, now):
            if job.role is JobRole.MAIN and not faulted_once["done"]:
                faulted_once["done"] = True
                return True
            return False

        engine = StandbySparingEngine(
            one_task,
            EveryJobBothProcs(),
            10,
            transient_fault_fn=fault_main_once,
        )
        result = engine.run()
        assert result.transient_fault_count == 1
        assert result.all_mk_satisfied()  # the backup saved the job
        assert result.busy_ticks(1) == 4

    def test_both_copies_faulted_means_miss(self, one_task):
        engine = StandbySparingEngine(
            one_task,
            EveryJobBothProcs(),
            10,
            transient_fault_fn=lambda job, now: True,
        )
        result = engine.run()
        outcomes = result.trace.outcomes_for_task(0)
        assert outcomes == [False]

    def test_faulted_optional_is_simply_missed(self):
        ts = TaskSet([Task(10, 10, 4, 1, 2)])
        # The (1,2) task's only job has FD 1: an optional on the primary.
        optional_only = ProfilePolicy(TaskProfile("fd", fd_max=None))
        engine = StandbySparingEngine(
            ts, optional_only, 10, transient_fault_fn=lambda job, now: True
        )
        result = engine.run()
        assert result.trace.outcomes_for_task(0) == [False]
        assert result.busy_ticks(0) == 4  # energy was still spent


def PostponedBackup():
    """Test policy: main at release, backup enqueued 6 ticks later."""
    return ProfilePolicy(
        TaskProfile("all", backup_offset=6), name="test-postponed-backup"
    )


class TestPermfaultPendingCopies:
    """A permanent fault must mark postponed, not-yet-enqueued copies LOST."""

    def test_pending_backup_on_dead_processor_never_runs(self, one_task):
        # Backup's enqueue (tick 6) is scheduled after the spare dies
        # (tick 3): the enqueue event still fires, but the copy was marked
        # LOST from the pending set and must never execute.
        result = StandbySparingEngine(
            one_task, PostponedBackup(), 10, permanent_fault=(SPARE, 3)
        ).run()
        assert result.trace.segments_on(SPARE) == []
        assert result.all_mk_satisfied()  # main alone completed at 4

    def test_lost_pending_backup_cannot_save_faulted_main(self, one_task):
        def fault_mains(job, now):
            return job.role is JobRole.MAIN

        result = StandbySparingEngine(
            one_task,
            PostponedBackup(),
            10,
            permanent_fault=(SPARE, 3),
            transient_fault_fn=fault_mains,
        ).run()
        # The backup that would have recovered the fault was LOST with
        # the spare, so the job misses.
        assert result.trace.outcomes_for_task(0)[0] is False
        assert result.trace.segments_on(SPARE) == []

    def test_pending_backup_survives_fault_on_other_processor(self, one_task):
        def fault_mains(job, now):
            return job.role is JobRole.MAIN

        result = StandbySparingEngine(
            one_task,
            PostponedBackup(),
            10,
            permanent_fault=(PRIMARY, 5),
            transient_fault_fn=fault_mains,
        ).run()
        # The primary's death must not disturb the spare's pending set:
        # the postponed backup enqueues at 6 and completes by 10.
        assert result.trace.outcomes_for_task(0)[0] is True
        spare_segments = result.trace.segments_on(SPARE)
        assert spare_segments and spare_segments[0].start >= 6


class TestOutcomeRecording:
    def test_skipped_job_recorded_missed(self):
        ts = TaskSet([Task(10, 10, 4, 1, 2)])
        result = StandbySparingEngine(ts, skip_all(), 25).run()
        assert result.trace.outcomes_for_task(0) == [False, False, False]
        assert not result.all_mk_satisfied()

    def test_records_have_classification_and_fd(self, fig1):
        result = StandbySparingEngine(fig1, MKSSStatic(), 20).run()
        record = result.trace.records[(0, 1)]
        assert record.classified_as == "mandatory"
        assert record.flexibility_degree == 2
