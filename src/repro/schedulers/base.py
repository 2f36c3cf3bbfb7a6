"""Shared helpers for building and running scheduling policies."""

from __future__ import annotations

from typing import Optional

from ..faults.scenario import FaultScenario
from ..model.taskset import TaskSet
from ..sim.engine import (
    SchedulingPolicy,
    SimulationResult,
    StandbySparingEngine,
)
from ..sim.timeline import shared_release_timeline
from ..timebase import TimeBase


def run_policy(
    taskset: TaskSet,
    policy: SchedulingPolicy,
    horizon_ticks: int,
    timebase: Optional[TimeBase] = None,
    scenario: Optional[FaultScenario] = None,
    execution_time_fn=None,
    collect_trace: bool = True,
    release_timeline=None,
    release_model=None,
    initial_history: str = "met",
    speed_plan=None,
) -> SimulationResult:
    """Simulate one policy over one task set under a fault scenario.

    This is the one-stop entry point the examples and the harness use:
    it materializes the scenario's fault oracles, builds the engine, and
    runs it.

    Args:
        taskset: tasks in priority order.
        policy: the policy; one instance may serve any number of runs.
        horizon_ticks: releases strictly before this tick are simulated.
        timebase: tick grid (defaults to the task set's own).
        scenario: fault scenario; defaults to fault-free.
        collect_trace: False runs in stats-only mode (aggregate counters,
            no trace -- what sweeps consume).
        release_timeline: precomputed
            :class:`~repro.sim.timeline.ReleaseTimeline` to reuse.
        release_model: arrival process
            (:class:`~repro.workload.release.ReleaseModel`) used to build
            the timeline when none was supplied; None keeps the paper's
            periodic releases.
        initial_history: (m,k)-history boundary condition, one of
            :data:`repro.model.history.INITIAL_HISTORY_MODES`.
        speed_plan: DVFS :class:`~repro.energy.dvfs.SpeedPlan`; main
            copies then dispatch at the plan's per-task speeds with
            stretched budgets (None runs at full speed).
    """
    base = timebase or taskset.timebase()
    fault_scenario = scenario or FaultScenario.none()
    transient, permanent = fault_scenario.materialize(horizon_ticks, base)
    if release_timeline is None and release_model is not None:
        release_timeline = shared_release_timeline(
            taskset, horizon_ticks, base, release_model
        )
    engine = StandbySparingEngine(
        taskset=taskset,
        policy=policy,
        horizon_ticks=horizon_ticks,
        timebase=base,
        transient_fault_fn=transient,
        permanent_fault=permanent,
        initial_history=initial_history,
        execution_time_fn=execution_time_fn,
        collect_trace=collect_trace,
        release_timeline=release_timeline,
        speed_plan=speed_plan,
    )
    return engine.run()
