"""Shared per-(task set, horizon) release timelines.

Every scheme simulated on one task set sees the same job releases: task i
releases job j at ``(j - 1) * P_i`` for every release instant strictly
before the horizon.  The engine used to rediscover this by chaining
release events through its heap -- once per scheme, per run.  A
:class:`ReleaseTimeline` precomputes the merged release sequence once and
is shared (via the offline-analysis cache) across every scheme and fault
scenario run on the same (task set, horizon) pair.

The order of same-tick releases is part of the engine's observable
behaviour (policies mutate per-task state and read (m,k) histories in
release order), so the timeline reproduces the heap protocol's order
exactly:

* at tick 0 every task releases, in task-index order (the engine seeded
  its heap that way);
* at any later shared tick, the release event of task i was pushed when
  its previous job released -- ``P_i`` ticks ago -- so events pushed
  earlier (larger periods) drained first; equal periods share every
  release tick and therefore keep their tick-0 relative order.

Hence the sort key: ``(tick, task_index)`` at tick 0 and
``(tick, -period, task_index)`` afterwards.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..analysis.cache import shared_analysis
from ..errors import ConfigurationError
from ..model.taskset import TaskSet
from ..timebase import TimeBase
from ..workload.release import ReleaseModel


class ReleaseTimeline:
    """The merged release sequence of one task set over one horizon.

    Attributes:
        horizon_ticks: releases strictly before this tick are included.
        ticks / tasks / jobs: parallel tuples, one entry per release, in
            engine drain order; ``jobs`` holds 1-based job indices.
        period_ticks: per-task periods in ticks.

    Instances are immutable and safe to share across engines and threads;
    each engine keeps its own cursor into the tuples.
    """

    __slots__ = (
        "horizon_ticks",
        "ticks",
        "tasks",
        "jobs",
        "period_ticks",
    )

    def __init__(
        self,
        taskset: TaskSet,
        horizon_ticks: int,
        timebase: TimeBase,
        release_model: Optional[ReleaseModel] = None,
    ) -> None:
        if horizon_ticks <= 0:
            raise ConfigurationError(
                f"horizon must be positive, got {horizon_ticks}"
            )
        periods = tuple(timebase.to_ticks(task.period) for task in taskset)
        entries: List[Tuple[int, int, int, int]] = []
        if release_model is None or release_model.is_periodic():
            for index, period in enumerate(periods):
                tick, job = 0, 1
                while tick < horizon_ticks:
                    rank = index if tick == 0 else -period
                    entries.append((tick, rank, index, job))
                    tick += period
                    job += 1
        else:
            for index, period in enumerate(periods):
                for tick, job in _arrivals(
                    release_model, index, period, horizon_ticks
                ):
                    rank = index if tick == 0 else -period
                    entries.append((tick, rank, index, job))
        entries.sort()
        self.horizon_ticks = horizon_ticks
        self.period_ticks = periods
        self.ticks = tuple(entry[0] for entry in entries)
        self.tasks = tuple(entry[2] for entry in entries)
        self.jobs = tuple(entry[3] for entry in entries)

    def __len__(self) -> int:
        return len(self.ticks)

    def __repr__(self) -> str:
        return (
            f"ReleaseTimeline(releases={len(self.ticks)}, "
            f"horizon_ticks={self.horizon_ticks})"
        )


def _arrivals(
    model: ReleaseModel, task_index: int, period: int, horizon_ticks: int
):
    """One task's seeded arrival stream: (tick, 1-based job index) pairs.

    Every inter-arrival time is at least ``period`` (sporadic-legal), so
    the job count never exceeds the periodic model's and 1-based job
    indices stay consecutive.
    """
    rng = random.Random(model.task_seed(task_index))
    if model.kind == "sporadic":
        jitter_max = int(model.jitter * period)
        tick, job = 0, 1
        while tick < horizon_ticks:
            yield tick, job
            tick += period + rng.randint(0, jitter_max)
            job += 1
    elif model.kind == "bursty":
        gap_max = max(1, int(model.burst_gap * period))
        tick, job, in_burst = 0, 1, 1
        while tick < horizon_ticks:
            yield tick, job
            tick += period
            if in_burst >= model.burst_size:
                tick += rng.randint(1, gap_max)
                in_burst = 1
            else:
                in_burst += 1
            job += 1
    else:  # pragma: no cover - periodic handled by the caller's fast path
        tick, job = 0, 1
        while tick < horizon_ticks:
            yield tick, job
            tick += period
            job += 1


def shared_release_timeline(
    taskset: TaskSet,
    horizon_ticks: int,
    timebase: TimeBase,
    release_model: Optional[ReleaseModel] = None,
) -> ReleaseTimeline:
    """The memoized timeline for (task set, horizon), shared per process.

    Non-periodic models extend the memo key with the model's full
    identity (kind, jitter/burst parameters, seed) -- a warm cache must
    never serve a periodic timeline to a sporadic run or one jitter
    seed's timeline to another.  Periodic requests keep the historical
    ``(horizon,)`` key so existing cache entries stay valid.
    """
    if release_model is not None and release_model.is_periodic():
        release_model = None
    params: Tuple = (
        (horizon_ticks,)
        if release_model is None
        else (horizon_ticks, release_model.cache_key())
    )
    return shared_analysis(
        "release_timeline",
        taskset,
        timebase,
        params,
        lambda: ReleaseTimeline(taskset, horizon_ticks, timebase, release_model),
    )
