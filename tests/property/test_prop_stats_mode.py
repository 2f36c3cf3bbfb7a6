"""Differential tests: stats-only runs vs full traces.

A stats-only run (``collect_trace=False``) claims *bitwise* equality: it
must report exactly the same energies, QoS metrics, (m,k)-satisfaction,
busy ticks, and release counts as the plain trace-collecting simulation
-- which test_prop_fastpath already pins to the seed reference engine.
These tests close the triangle:

* trace mode == stats-only mode, on generated workloads across
  {fault-free, forced permanent fault} x horizons of roughly
  {1, 2.5, 7} hyperperiods, and on a phase-aligned set for every policy;
* stats-only mode == the verbatim seed reference engine on a sample of
  the same configurations;
* the stats-mode surface of :class:`~repro.sim.engine.SimulationResult`
  (busy ticks and the (m,k) verdict read from its counters, no trace).
"""

from __future__ import annotations

import pytest

from tests.reference_engine import ReferenceStandbySparingEngine
from repro.analysis.hyperperiod import lcm_ticks
from repro.energy.accounting import energy_of_result
from repro.energy.power import PowerModel
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.qos.metrics import collect_metrics
from repro.schedulers import (
    MKSSDualPriority,
    MKSSGreedy,
    MKSSHybrid,
    MKSSSelective,
    MKSSStatic,
)
from repro.sim.engine import StandbySparingEngine
from repro.workload.generator import TaskSetGenerator

POLICIES = (
    MKSSStatic, MKSSDualPriority, MKSSSelective, MKSSGreedy, MKSSHybrid
)


def aligned_taskset() -> TaskSet:
    """Harmonic periods with k_i * P_i | lcm(P): a 20-tick schedule cycle."""
    return TaskSet(
        [
            Task(5, 5, 1, 1, 2),
            Task(10, 10, 2, 1, 2),
            Task(20, 20, 5, 1, 1),
        ]
    )


def metric_view(result):
    """Everything downstream consumers can observe, exactly."""
    energy = energy_of_result(result, PowerModel.paper_default())
    breakdown = {
        processor: (
            pe.busy_units,
            pe.idle_units,
            pe.sleep_units,
            pe.active_energy,
            pe.idle_energy,
            pe.sleep_energy,
            pe.transition_count,
        )
        for processor, pe in energy.per_processor.items()
    }
    return (
        collect_metrics(result).as_dict(),
        breakdown,
        energy.total_energy,
        result.mk_satisfied(),
        (result.busy_ticks(), result.busy_ticks(0), result.busy_ticks(1)),
        result.released_jobs,
        result.transient_fault_count,
    )


def run_mode(taskset, policy_cls, horizon_ticks, *, collect_trace,
             permanent_fault=None, engine_cls=StandbySparingEngine):
    base = taskset.timebase()
    return engine_cls(
        taskset,
        policy_cls(),
        horizon_ticks,
        base,
        permanent_fault=permanent_fault,
        **(
            {"collect_trace": collect_trace}
            if engine_cls is StandbySparingEngine
            else {}
        ),
    ).run()


def run_both_modes(taskset, policy_cls, horizon_ticks, permanent_fault=None):
    trace = run_mode(
        taskset, policy_cls, horizon_ticks,
        collect_trace=True, permanent_fault=permanent_fault,
    )
    stats = run_mode(
        taskset, policy_cls, horizon_ticks,
        collect_trace=False, permanent_fault=permanent_fault,
    )
    return trace, stats


class TestTraceStatsAgreement:
    """trace == stats on generated workloads."""

    SEEDS = range(10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated(self, seed):
        taskset = TaskSetGenerator(seed=3000 + seed).generate(
            0.3 + 0.05 * (seed % 6)
        )
        base = taskset.timebase()
        cycle = lcm_ticks(base.to_ticks(task.period) for task in taskset)
        horizon = [cycle, (5 * cycle) // 2, 7 * cycle][seed % 3]
        policy_cls = POLICIES[seed % len(POLICIES)]
        fault = None
        if seed % 2 == 1:
            # Odd seeds kill a processor partway through the second cycle.
            fault = (seed % 4 // 2, cycle + (cycle // 3) + seed)
        trace, stats = run_both_modes(
            taskset, policy_cls, horizon, permanent_fault=fault
        )
        assert metric_view(stats) == metric_view(trace)
        assert trace.trace is not None
        assert stats.trace is None

    @pytest.mark.parametrize("policy_cls", POLICIES)
    @pytest.mark.parametrize("fault", [None, (0, 27), (1, 43)])
    def test_aligned_every_policy(self, policy_cls, fault):
        taskset = aligned_taskset()
        horizon = 7 * 20  # ticks_per_unit == 1 for integer-parameter sets
        trace, stats = run_both_modes(
            taskset, policy_cls, horizon, permanent_fault=fault
        )
        assert metric_view(stats) == metric_view(trace)

    def test_agrees_with_seed_reference_engine(self):
        """Stats-only runs match the verbatim pre-overhaul engine."""
        for seed in (3004, 3007):
            taskset = TaskSetGenerator(seed=seed).generate(0.4)
            base = taskset.timebase()
            cycle = lcm_ticks(base.to_ticks(task.period) for task in taskset)
            horizon = (5 * cycle) // 2
            stats = run_mode(
                taskset, MKSSSelective, horizon, collect_trace=False
            )
            reference = run_mode(
                taskset, MKSSSelective, horizon,
                collect_trace=True,
                engine_cls=ReferenceStandbySparingEngine,
            )
            assert metric_view(stats) == metric_view(reference)


class TestStatsModeResult:
    @pytest.fixture
    def taskset(self):
        return TaskSet(
            [
                Task(5, 5, 1, 1, 2),
                Task(10, 10, 2, 1, 2),
            ]
        )

    def run(self, taskset, **kwargs):
        return StandbySparingEngine(
            taskset, MKSSSelective(), 40, **kwargs
        ).run()

    def test_busy_ticks_from_counters(self, taskset):
        trace_run = self.run(taskset)
        stats_run = self.run(taskset, collect_trace=False)
        assert stats_run.busy_ticks() == trace_run.busy_ticks()
        assert stats_run.busy_ticks(0) == trace_run.busy_ticks(0)
        assert stats_run.busy_ticks(1) == trace_run.busy_ticks(1)
        assert stats_run.busy_ticks(7) == 0

    def test_mk_satisfied_cached_and_copied(self, taskset):
        result = self.run(taskset, collect_trace=False)
        first = result.mk_satisfied()
        second = result.mk_satisfied()
        assert first == second
        first[0] = not first[0]  # caller mutation must not poison the cache
        assert result.mk_satisfied() == second

    def test_stats_mode_has_no_trace(self, taskset):
        result = self.run(taskset, collect_trace=False)
        assert result.trace is None
        assert result.stats is not None
        assert result.stats.released == result.released_jobs
