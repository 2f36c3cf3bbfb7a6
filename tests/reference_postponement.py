"""The task-level θ loop of Definition 5, kept as a differential oracle.

This is the postponement analysis as it shipped before the prefix-sum
rewrite: every mandatory job J_ij calls the public per-job
:func:`~repro.analysis.postponement.job_postponement_interval`
(Definition 4), which rescans the whole list of published
higher-priority backups once per inspecting point.  Quadratic and
deliberately unoptimized -- its value is that it shares none of the
production code's sorted arrays, prefix sums or bisect slices.

One change from the shipped loop: every task's backups are published
over the *lowest-priority* task's window, which is the whole
(m,k)-hyperperiod when the call is uncapped.  The shipped loop published
only up to the task's own window when uncapped, hiding higher-priority
backups from lower-priority tasks with longer windows (see
``tests/unit/test_postponement.py::TestUncappedPublish``).

Used only by tests (``tests/property/test_prop_postponement.py``); never
import this from package code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.hyperperiod import mk_hyperperiod_ticks
from repro.analysis.postponement import (
    PostponementResult,
    job_postponement_interval,
)
from repro.analysis.promotion import promotion_times
from repro.model.patterns import Pattern, RPattern
from repro.model.taskset import TaskSet
from repro.timebase import TimeBase


def _mandatory_jobs_before(pattern: Pattern, period: int, limit: int) -> List[int]:
    """1-based mandatory job indices with release strictly before ``limit``."""
    return [j for j in range(1, -(-limit // period) + 1) if pattern.is_mandatory(j)]


def reference_postponement(
    taskset: TaskSet,
    timebase: Optional[TimeBase] = None,
    patterns: Optional[Sequence[Pattern]] = None,
    horizon_ticks: Optional[int] = None,
    floor_at_promotion: bool = True,
) -> PostponementResult:
    """θ_i for every task by the per-job rescan; same contract as
    :func:`repro.analysis.postponement.task_postponement_intervals`."""
    base = timebase or taskset.timebase()
    if patterns is None:
        patterns = [RPattern(t.mk) for t in taskset]
    promotions = promotion_times(taskset, base)
    windows = []
    for index in range(len(taskset)):
        window = mk_hyperperiod_ticks(taskset, base, upto_priority=index)
        if horizon_ticks is not None:
            window = min(window, horizon_ticks)
        windows.append(window)
    publish_limit = max(windows)

    thetas: List[int] = []
    raw_thetas: List[int] = []
    job_thetas: Dict[int, List[Tuple[int, int]]] = {}
    hp_backup_jobs: List[Tuple[int, int, int]] = []
    for index, task in enumerate(taskset):
        period = base.to_ticks(task.period)
        deadline_rel = base.to_ticks(task.deadline)
        wcet = base.to_ticks(task.wcet)
        per_job: List[Tuple[int, int]] = []
        for job_index in _mandatory_jobs_before(
            patterns[index], period, windows[index]
        ):
            release = (job_index - 1) * period
            per_job.append(
                (
                    job_index,
                    job_postponement_interval(
                        release, release + deadline_rel, wcet, hp_backup_jobs
                    ),
                )
            )
        theta_min = (
            min(theta for _, theta in per_job) if per_job else promotions[index]
        )
        raw_thetas.append(theta_min)
        theta = (
            max(theta_min, promotions[index]) if floor_at_promotion else theta_min
        )
        thetas.append(theta)
        job_thetas[index] = per_job
        for job_index in _mandatory_jobs_before(
            patterns[index], period, publish_limit
        ):
            release = (job_index - 1) * period
            hp_backup_jobs.append((release + theta, release + deadline_rel, wcet))

    return PostponementResult(
        thetas=thetas,
        promotions=promotions,
        raw_thetas=raw_thetas,
        job_thetas=job_thetas,
        horizon=publish_limit,
    )
