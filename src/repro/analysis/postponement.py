"""Backup release postponement analysis (Definitions 2-5 of the paper).

The selective scheme delays every backup job J'_ij on the spare processor
by a per-task *release postponement interval* θ_i, computed offline from
the static R-pattern:

* **Inspecting points** (Definition 3) of J'_ij: its absolute deadline
  d_ij, plus every postponed release time r̃_kl of a higher-priority backup
  job falling strictly inside (r_ij, d_ij).

* **Job postponement interval** (Definition 4)::

      θ_ij = max over inspecting points t̄ of
             t̄ - (c_ij + Σ_{k<i, d_kl > r_ij, r̃_kl < t̄} c_kl) - r_ij

  The intuition: if J'_ij's release is pushed to r_ij + θ_ij it can still
  absorb all higher-priority backup work that becomes ready before some
  inspecting point t̄ and complete by t̄ <= d_ij.

* **Task postponement interval** (Definition 5): θ_i is the minimum θ_ij
  over the mandatory jobs inside the priority-i (m,k)-hyperperiod
  ``LCM_{q<=i}(k_q P_q)`` (bounded by the analysis horizon, see
  :mod:`repro.analysis.hyperperiod`).

Intervals are computed in *descending* priority order because the
postponed releases of higher-priority backups are the inspecting points of
lower-priority ones.  Finally θ_i is floored at the dual-priority
promotion time Y_i, which is always safe (the paper states this fallback;
its "R_i" is read as the promotion-based postponement, see DESIGN.md).

:func:`task_postponement_intervals` does not rescan the higher-priority
backups per inspecting point as :func:`job_postponement_interval` does.
It keeps them in two sorted arrays, one by r̃ and one by d, each with
prefix sums of C, so the interference at t̄ is

    (C-sum over r̃ < t̄) - (C-sum over d <= r_ij)

and a job's inspecting points are one bisect slice of the r̃ array.  The
subtraction is exact because every backup has r̃ < d: each θ_kj is at
most d_kj - c_k - r_kj, Y_k <= D_k - C_k, and ``Task`` enforces
0 < C <= D, so θ_k < D_k.  ``tests/reference_postponement.py`` keeps the
per-job rescan as the differential oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..model.patterns import Pattern, RPattern, is_window_periodic
from ..model.taskset import TaskSet
from ..timebase import TimeBase
from .cache import analysis_cache
from .hyperperiod import mk_hyperperiod_ticks
from .promotion import promotion_times


@dataclass
class PostponementResult:
    """Outcome of the offline postponement analysis (all times in ticks).

    Attributes:
        thetas: per-task release postponement interval θ_i, priority order.
        promotions: per-task promotion time Y_i (the safe floor).
        raw_thetas: θ_i before flooring at Y_i (for reporting/ablation).
        job_thetas: per task, the list of (job_index, θ_ij) examined.
        horizon: the analysis horizon in ticks.
    """

    thetas: List[int]
    promotions: List[int]
    raw_thetas: List[int]
    job_thetas: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    horizon: int = 0

    def postponed_release(self, task_index: int, release_ticks: int) -> int:
        """r̃ = r + θ_i for a backup job of the given task (Equation 3)."""
        return release_ticks + self.thetas[task_index]


def _mandatory_jobs_before(
    pattern: Pattern, period: int, limit: int
) -> List[int]:
    """1-based mandatory job indices with release strictly before ``limit``."""
    if limit <= 0:
        return []
    last = -(-limit // period)  # jobs 1..last have release < limit
    if (last - 1) * period >= limit:
        last -= 1
    if not is_window_periodic(pattern):
        return [j for j in range(1, last + 1) if pattern.is_mandatory(j)]
    # Read the shared window by job phase: one window's mandatory jobs,
    # repeated every k jobs, then trimmed to ``last``.
    bits = pattern.period_window().bits
    firsts = [phase + 1 for phase, bit in enumerate(bits) if bit]
    jobs = [start + j for start in range(0, last, len(bits)) for j in firsts]
    while jobs and jobs[-1] > last:
        jobs.pop()
    return jobs


def inspecting_points(
    release: int,
    deadline: int,
    hp_postponed_releases: Sequence[int],
) -> List[int]:
    """Inspecting points of a backup job (Definition 3), sorted ascending.

    Args:
        release: r_ij in ticks.
        deadline: d_ij in ticks.
        hp_postponed_releases: postponed release times r̃_kl of all
            higher-priority backup jobs (any range; filtered here).
    """
    points = {deadline}
    for point in hp_postponed_releases:
        if release < point < deadline:
            points.add(point)
    return sorted(points)


def job_postponement_interval(
    release: int,
    deadline: int,
    wcet: int,
    hp_jobs: Sequence[Tuple[int, int, int]],
) -> int:
    """θ_ij per Definition 4.

    Args:
        release: r_ij in ticks.
        deadline: d_ij in ticks.
        wcet: c_ij in ticks.
        hp_jobs: higher-priority backup jobs as tuples
            ``(postponed_release, absolute_deadline, wcet)`` in ticks.

    Returns:
        The job release postponement interval θ_ij (may be negative when
        the job has no slack at all; callers floor the per-task minimum).
    """
    relevant = [
        (pr, dl, c) for (pr, dl, c) in hp_jobs if dl > release
    ]
    points = inspecting_points(release, deadline, [pr for pr, _, _ in relevant])
    best: Optional[int] = None
    for t_bar in points:
        interference = sum(c for pr, _, c in relevant if pr < t_bar)
        candidate = t_bar - (wcet + interference) - release
        if best is None or candidate > best:
            best = candidate
    if best is None:  # pragma: no cover - deadline is always a point
        raise AnalysisError("a backup job must have at least one inspecting point")
    return best


def task_postponement_intervals(
    taskset: TaskSet,
    timebase: Optional[TimeBase] = None,
    patterns: Optional[Sequence[Pattern]] = None,
    horizon_ticks: Optional[int] = None,
    floor_at_promotion: bool = True,
) -> PostponementResult:
    """Compute θ_i for every task (Definition 5), priority order.

    Args:
        taskset: the task set (priority = index).
        timebase: tick grid; derived from the task set when omitted.
        patterns: static patterns (default: R-patterns).
        horizon_ticks: cap on each task's examination window
            ``LCM_{q<=i}(k_q P_q)``; ``None`` uses the full LCM (can be
            huge for random task sets -- prefer passing the simulation
            horizon).  Backups are published for lower priorities over
            the lowest-priority window, i.e. the whole (m,k)-hyperperiod
            when uncapped.
        floor_at_promotion: apply the θ_i := max(θ_i, Y_i) safety floor.

    Returns:
        A :class:`PostponementResult` with per-task θ_i and diagnostics.
    """
    base = timebase or taskset.timebase()
    if patterns is None:
        # Fully determined by the key -> memoized.  Explicit patterns
        # carry behaviour and bypass the cache.
        key = (
            "postponement",
            taskset.analysis_key(),
            base.ticks_per_unit,
            horizon_ticks,
            floor_at_promotion,
        )
        cached = analysis_cache().get(
            key,
            lambda: _task_postponement_intervals(
                taskset, base, None, horizon_ticks, floor_at_promotion
            ),
        )
        return _clone_result(cached)
    return _task_postponement_intervals(
        taskset, base, patterns, horizon_ticks, floor_at_promotion
    )


def _clone_result(result: PostponementResult) -> PostponementResult:
    """A mutation-safe copy of a cached result."""
    return PostponementResult(
        thetas=list(result.thetas),
        promotions=list(result.promotions),
        raw_thetas=list(result.raw_thetas),
        job_thetas={k: list(v) for k, v in result.job_thetas.items()},
        horizon=result.horizon,
    )


def _task_postponement_intervals(
    taskset: TaskSet,
    base: TimeBase,
    patterns: Optional[Sequence[Pattern]],
    horizon_ticks: Optional[int],
    floor_at_promotion: bool,
) -> PostponementResult:
    if patterns is None:
        patterns = [RPattern(t.mk) for t in taskset]
    promotions = promotion_times(taskset, base)
    windows: List[int] = []
    for index in range(len(taskset)):
        window = mk_hyperperiod_ticks(taskset, base, upto_priority=index)
        if horizon_ticks is not None:
            window = min(window, horizon_ticks)
        windows.append(window)
    # Windows only grow with the priority level, so the lowest-priority
    # window bounds every job any task examines: publish backups that far.
    publish_limit = windows[-1]

    thetas: List[int] = []
    raw_thetas: List[int] = []
    job_thetas: Dict[int, List[Tuple[int, int]]] = {}
    # Published higher-priority backups as (r̃, C) and (d, C) pairs.
    by_release: List[Tuple[int, int]] = []
    by_deadline: List[Tuple[int, int]] = []

    for index, task in enumerate(taskset):
        period = base.to_ticks(task.period)
        deadline_rel = base.to_ticks(task.deadline)
        wcet = base.to_ticks(task.wcet)
        by_release.sort()
        by_deadline.sort()
        releases = list(map(itemgetter(0), by_release))
        release_sums = list(accumulate(map(itemgetter(1), by_release), initial=0))
        deadlines = list(map(itemgetter(0), by_deadline))
        deadline_sums = list(accumulate(map(itemgetter(1), by_deadline), initial=0))
        # t̄ minus the C-sum over r̃ < t̄, at the inspecting point
        # t̄ = releases[j].  A repeated r̃ only lowers it, so the maximum
        # over a slice needs no deduplication.
        point_slack = [point - s for point, s in zip(releases, release_sums)]

        mandatory = _mandatory_jobs_before(patterns[index], period, publish_limit)
        examined = bisect_right(mandatory, -(-windows[index] // period))
        per_job: List[Tuple[int, int]] = []
        for job_index in mandatory[:examined]:
            release = (job_index - 1) * period
            abs_deadline = release + deadline_rel
            # Inspecting points: the r̃ in (release, abs_deadline), then
            # abs_deadline itself.
            lo = bisect_right(releases, release)
            hi = bisect_left(releases, abs_deadline, lo)
            best = abs_deadline - release_sums[hi]
            if lo < hi:
                best = max(best, max(point_slack[lo:hi]))
            # Backups with d <= release do not interfere; all of them have
            # r̃ < d <= release < t̄, so their C-sum comes off every point.
            stale = deadline_sums[bisect_right(deadlines, release)]
            per_job.append((job_index, best + stale - wcet - release))
        # No mandatory job in the window (cannot happen under R-pattern,
        # whose first job is always mandatory, but E-patterns with a tiny
        # window could): fall back to the promotion time.
        theta_min = (
            min(theta for _, theta in per_job) if per_job else promotions[index]
        )
        raw_thetas.append(theta_min)
        theta = max(theta_min, promotions[index]) if floor_at_promotion else theta_min
        thetas.append(theta)
        job_thetas[index] = per_job

        for job_index in mandatory:
            release = (job_index - 1) * period
            by_release.append((release + theta, wcet))
            by_deadline.append((release + deadline_rel, wcet))

    return PostponementResult(
        thetas=thetas,
        promotions=promotions,
        raw_thetas=raw_thetas,
        job_thetas=job_thetas,
        horizon=publish_limit,
    )
