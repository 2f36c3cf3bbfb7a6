"""Unit tests for the shared release timeline (:mod:`repro.sim.timeline`)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import MKSSStatic
from repro.sim.engine import StandbySparingEngine
from repro.sim.timeline import ReleaseTimeline, shared_release_timeline


@pytest.fixture
def mixed_periods():
    return TaskSet(
        [
            Task(4, 4, 1, 1, 2, name="fast"),
            Task(6, 6, 1, 1, 2, name="mid"),
            Task(12, 12, 2, 1, 2, name="slow"),
        ]
    )


class TestReleaseTimeline:
    def test_counts_and_job_indices(self, mixed_periods):
        base = mixed_periods.timebase()
        timeline = ReleaseTimeline(mixed_periods, 24, base)
        # Releases strictly before tick 24: 6 + 4 + 2.
        assert len(timeline) == 12
        per_task = {}
        for task, job in zip(timeline.tasks, timeline.jobs):
            per_task.setdefault(task, []).append(job)
        assert per_task[0] == [1, 2, 3, 4, 5, 6]
        assert per_task[1] == [1, 2, 3, 4]
        assert per_task[2] == [1, 2]

    def test_tick_zero_releases_in_task_order(self, mixed_periods):
        base = mixed_periods.timebase()
        timeline = ReleaseTimeline(mixed_periods, 24, base)
        initial = [
            task for tick, task in zip(timeline.ticks, timeline.tasks)
            if tick == 0
        ]
        assert initial == [0, 1, 2]

    def test_shared_tick_drains_larger_period_first(self, mixed_periods):
        """At tick 12 all three release; the heap protocol drained the
        event pushed longest ago (largest period) first."""
        base = mixed_periods.timebase()
        timeline = ReleaseTimeline(mixed_periods, 24, base)
        at_12 = [
            task for tick, task in zip(timeline.ticks, timeline.tasks)
            if tick == 12
        ]
        assert at_12 == [2, 1, 0]

    def test_ticks_are_sorted(self, mixed_periods):
        base = mixed_periods.timebase()
        timeline = ReleaseTimeline(mixed_periods, 50, base)
        assert list(timeline.ticks) == sorted(timeline.ticks)

    def test_bad_horizon_rejected(self, mixed_periods):
        with pytest.raises(ConfigurationError):
            ReleaseTimeline(mixed_periods, 0, mixed_periods.timebase())


class TestSharedReleaseTimeline:
    def test_memoized_per_taskset_and_horizon(self, mixed_periods):
        base = mixed_periods.timebase()
        first = shared_release_timeline(mixed_periods, 24, base)
        again = shared_release_timeline(mixed_periods, 24, base)
        other = shared_release_timeline(mixed_periods, 48, base)
        assert first is again
        assert first is not other

    def test_engine_rejects_mismatched_timeline(self, mixed_periods):
        base = mixed_periods.timebase()
        wrong_horizon = ReleaseTimeline(mixed_periods, 12, base)
        with pytest.raises(ConfigurationError):
            StandbySparingEngine(
                mixed_periods,
                MKSSStatic(),
                24,
                base,
                release_timeline=wrong_horizon,
            ).run()

    def test_engine_accepts_shared_timeline(self, mixed_periods):
        base = mixed_periods.timebase()
        timeline = shared_release_timeline(mixed_periods, 24, base)
        solo = StandbySparingEngine(
            mixed_periods, MKSSStatic(), 24, base
        ).run()
        shared = StandbySparingEngine(
            mixed_periods, MKSSStatic(), 24, base, release_timeline=timeline
        ).run()
        assert shared.trace.segments == solo.trace.segments
        assert shared.released_jobs == solo.released_jobs
