"""Unit tests for repro.analysis.postponement (Definitions 2-5)."""

from __future__ import annotations

import pytest

from repro.analysis.hyperperiod import mk_hyperperiod_ticks
from repro.analysis.postponement import (
    inspecting_points,
    job_postponement_interval,
    task_postponement_intervals,
)
from repro.analysis.schedulability import (
    is_rpattern_schedulable,
    simulate_mandatory_fp,
)
from repro.model.task import Task
from repro.model.taskset import TaskSet


class TestInspectingPoints:
    def test_deadline_always_included(self):
        assert inspecting_points(0, 10, []) == [10]

    def test_hp_releases_inside_window_included(self):
        assert inspecting_points(0, 15, [7, 17, -1, 0, 15]) == [7, 15]

    def test_sorted_and_deduplicated(self):
        assert inspecting_points(0, 10, [5, 5, 3]) == [3, 5, 10]


class TestJobPostponementInterval:
    def test_no_interference(self):
        # theta = d - c - r = 10 - 3 - 0
        assert job_postponement_interval(0, 10, 3, []) == 7

    def test_paper_theta21(self):
        """Fig. 5's θ21: max(15-(8+3)-0, 7-(8+0)-0) = 4."""
        hp_jobs = [(7, 10, 3)]  # J'11 postponed to 7, deadline 10, c=3
        assert job_postponement_interval(0, 15, 8, hp_jobs) == 4

    def test_interference_with_stale_deadline_excluded(self):
        # hp job with deadline before this release is irrelevant.
        hp_jobs = [(3, 4, 2)]
        assert job_postponement_interval(5, 15, 3, hp_jobs) == 7

    def test_can_be_negative(self):
        assert job_postponement_interval(0, 4, 3, [(0, 10, 3)]) < 0


class TestTaskPostponementIntervals:
    def test_fig5_gold_values(self, fig5):
        result = task_postponement_intervals(fig5)
        assert result.thetas == [7, 4]
        assert result.raw_thetas == [7, 4]
        assert result.promotions == [7, 1]

    def test_postponed_release_helper(self, fig5):
        result = task_postponement_intervals(fig5)
        assert result.postponed_release(0, 10) == 17
        assert result.postponed_release(1, 0) == 4

    def test_floor_at_promotion_can_be_disabled(self):
        ts = TaskSet([Task(4, 4, 1, 1, 2), Task(4, 4, 3, 1, 2)])
        floored = task_postponement_intervals(ts)
        raw = task_postponement_intervals(ts, floor_at_promotion=False)
        assert all(
            f >= max(r, y)
            for f, r, y in zip(floored.thetas, raw.thetas, floored.promotions)
        )

    def test_thetas_at_least_promotions(self, fig1):
        result = task_postponement_intervals(fig1)
        assert all(
            theta >= y for theta, y in zip(result.thetas, result.promotions)
        )

    def test_backups_schedulable_under_thetas(self, fig1, fig5):
        for ts in (fig1, fig5):
            result = task_postponement_intervals(ts)
            ok, misses = simulate_mandatory_fp(
                ts, release_offsets=result.thetas
            )
            assert ok, misses

    def test_horizon_restriction_examines_fewer_jobs(self, fig5):
        base = fig5.timebase()
        short = task_postponement_intervals(
            fig5, base, horizon_ticks=10 * base.ticks_per_unit
        )
        full = task_postponement_intervals(fig5, base)
        assert len(short.job_thetas[0]) <= len(full.job_thetas[0])

    def test_three_task_chain(self):
        """θ must be computed top-down; lower levels see postponed hp jobs."""
        ts = TaskSet(
            [
                Task(10, 10, 2, 1, 2),
                Task(10, 10, 3, 1, 2),
                Task(20, 20, 4, 1, 2),
            ]
        )
        result = task_postponement_intervals(ts)
        ok, misses = simulate_mandatory_fp(ts, release_offsets=result.thetas)
        assert ok, misses
        # The highest-priority task has no interference: theta = D - C.
        assert result.thetas[0] == 8


class TestUncappedPublish:
    """An uncapped call publishes backups over the whole hyperperiod.

    τ4's window (144 ticks) is longer than the windows of τ1-τ3 (12, 24
    and 48).  Publishing each task's backups only up to its own window
    hid every higher-priority backup after tick 48 from τ4, which then
    got θ4 = 3 and missed jobs 1 and 7 (finishing at 15 and 87 against
    deadlines 12 and 84).
    """

    TASKS = [(4, 4, 1, 1, 2), (6, 6, 1, 3, 6), (8, 8, 2, 5, 6), (12, 12, 4, 1, 6)]

    @pytest.fixture
    def taskset(self):
        return TaskSet([Task(*params) for params in self.TASKS])

    def test_uncapped_matches_hyperperiod_cap(self, taskset):
        base = taskset.timebase()
        hyperperiod = mk_hyperperiod_ticks(taskset, base)
        assert hyperperiod == 144
        assert is_rpattern_schedulable(taskset, base)
        uncapped = task_postponement_intervals(taskset, base)
        capped = task_postponement_intervals(
            taskset, base, horizon_ticks=hyperperiod
        )
        assert uncapped.thetas == capped.thetas == [3, 4, 4, 2]
        assert uncapped.horizon == hyperperiod

    def test_uncapped_offsets_meet_every_deadline(self, taskset):
        base = taskset.timebase()
        result = task_postponement_intervals(taskset, base)
        ok, misses = simulate_mandatory_fp(
            taskset,
            base,
            horizon_ticks=mk_hyperperiod_ticks(taskset, base),
            release_offsets=result.thetas,
        )
        assert ok, misses
