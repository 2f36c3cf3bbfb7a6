"""Differential tests: cycle folding and stats-only runs vs full traces.

The cycle-folding fast path claims *bitwise* equality: a folded,
stats-only run must report exactly the same energies, QoS metrics,
(m,k)-satisfaction, busy ticks, and release counts as the plain
trace-collecting simulation -- which test_prop_fastpath already pins to
the seed reference engine.  These tests close the triangle:

* trace mode == stats-only mode == folded mode, on generated workloads
  across {fault-free, forced permanent fault} x horizons of roughly
  {1, 2.5, 7} hyperperiods;
* folded mode == the verbatim seed reference engine on a sample of the
  same configurations;
* folding actually fires (cycles_folded > 0) on phase-aligned sets with
  long horizons, with and without a permanent fault;
* a sweep journal written by a folded sweep is byte-identical (modulo
  run id / wall clock) to one written by a trace-mode sweep, and either
  resumes the other.
"""

from __future__ import annotations

import json

import pytest

from tests.reference_engine import ReferenceStandbySparingEngine
from repro.analysis.hyperperiod import lcm_ticks
from repro.energy.accounting import energy_of_result
from repro.energy.power import PowerModel
from repro.errors import ConfigurationError
from repro.harness.events import EventLog
from repro.harness.sweep import utilization_sweep
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

POLICIES = (MKSSStatic, MKSSDualPriority, MKSSSelective, MKSSGreedy, MKSSHybrid)


def aligned_taskset() -> TaskSet:
    """Harmonic periods with k_i * P_i | lcm(P): folds at every cycle."""
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


def run_mode(taskset, policy_cls, horizon_ticks, *, collect_trace, fold,
             permanent_fault=None, engine_cls=StandbySparingEngine):
    base = taskset.timebase()
    return engine_cls(
        taskset,
        policy_cls(),
        horizon_ticks,
        base,
        permanent_fault=permanent_fault,
        **(
            {"collect_trace": collect_trace, "fold": fold}
            if engine_cls is StandbySparingEngine
            else {}
        ),
    ).run()


def run_all_modes(taskset, policy_cls, horizon_ticks, permanent_fault=None):
    trace = run_mode(
        taskset, policy_cls, horizon_ticks,
        collect_trace=True, fold=False, permanent_fault=permanent_fault,
    )
    stats = run_mode(
        taskset, policy_cls, horizon_ticks,
        collect_trace=False, fold=False, permanent_fault=permanent_fault,
    )
    folded = run_mode(
        taskset, policy_cls, horizon_ticks,
        collect_trace=False, fold=True, permanent_fault=permanent_fault,
    )
    return trace, stats, folded


class TestThreeModeAgreement:
    """trace == stats == folded on generated workloads."""

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
        trace, stats, folded = run_all_modes(
            taskset, policy_cls, horizon, permanent_fault=fault
        )
        reference = metric_view(trace)
        assert metric_view(stats) == reference
        assert metric_view(folded) == reference
        assert stats.cycles_folded == 0
        assert trace.trace is not None
        assert stats.trace is None and folded.trace is None

    @pytest.mark.parametrize("policy_cls", POLICIES)
    @pytest.mark.parametrize("fault", [None, (0, 27), (1, 43)])
    def test_aligned_every_policy(self, policy_cls, fault):
        taskset = aligned_taskset()
        horizon = 7 * 20  # ticks_per_unit == 1 for integer-parameter sets
        trace, stats, folded = run_all_modes(
            taskset, policy_cls, horizon, permanent_fault=fault
        )
        reference = metric_view(trace)
        assert metric_view(stats) == reference
        assert metric_view(folded) == reference

    def test_agrees_with_seed_reference_engine(self):
        """Folded stats match the verbatim pre-overhaul engine."""
        for seed in (3004, 3007):
            taskset = TaskSetGenerator(seed=seed).generate(0.4)
            base = taskset.timebase()
            cycle = lcm_ticks(base.to_ticks(task.period) for task in taskset)
            horizon = (5 * cycle) // 2
            folded = run_mode(
                taskset, MKSSSelective, horizon, collect_trace=False, fold=True
            )
            reference = run_mode(
                taskset, MKSSSelective, horizon,
                collect_trace=True, fold=False,
                engine_cls=ReferenceStandbySparingEngine,
            )
            assert metric_view(folded) == metric_view(reference)


class TestFoldingFires:
    """Long aligned horizons must actually fold, not just agree."""

    def test_fault_free_folds(self):
        taskset = aligned_taskset()
        cycle = 20
        folded = run_mode(
            taskset, MKSSSelective, 40 * cycle, collect_trace=False, fold=True
        )
        assert folded.cycles_folded > 30
        assert folded.fold_cycle_ticks % cycle == 0

    def test_folds_resume_after_permanent_fault(self):
        taskset = aligned_taskset()
        folded = run_mode(
            taskset, MKSSSelective, 40 * 20,
            collect_trace=False, fold=True, permanent_fault=(0, 27),
        )
        assert folded.cycles_folded > 20

    def test_short_horizon_never_arms(self):
        folded = run_mode(
            aligned_taskset(), MKSSSelective, 35,
            collect_trace=False, fold=True,
        )
        assert folded.cycles_folded == 0

    def test_fold_requires_stats_only(self):
        with pytest.raises(ConfigurationError):
            StandbySparingEngine(
                aligned_taskset(), MKSSSelective(), 100,
                collect_trace=True, fold=True,
            )

    def test_transient_oracle_disables_folding(self):
        def oracle(job, now):  # pragma: no cover - never consulted enough
            return False

        folded = run_mode(
            aligned_taskset(), MKSSSelective, 40 * 20,
            collect_trace=False, fold=True,
        )
        engine = StandbySparingEngine(
            aligned_taskset(), MKSSSelective(), 40 * 20,
            transient_fault_fn=oracle, collect_trace=False, fold=True,
        )
        guarded = engine.run()
        assert folded.cycles_folded > 0
        assert guarded.cycles_folded == 0
        assert metric_view(guarded) == metric_view(folded)


class TestSweepJournalIdentity:
    """Folded sweeps checkpoint and resume identically to plain sweeps."""

    BINS = [(0.4, 0.5)]
    KW = dict(sets_per_bin=3, seed=77, horizon_cap_units=300)

    def _journal_rows(self, path, **extra):
        utilization_sweep(
            self.BINS, journal_path=str(path), **extra, **self.KW
        )
        rows = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                for volatile in ("run_id", "wall_s", "ts"):
                    row.pop(volatile, None)
                rows.append(row)
        return rows

    def test_journal_bytes_match_across_modes(self, tmp_path):
        plain = self._journal_rows(tmp_path / "plain.jsonl")
        folded = self._journal_rows(tmp_path / "fold.jsonl", fold=True)
        assert plain == folded

    def test_cross_mode_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = utilization_sweep(
            self.BINS, journal_path=str(path), fold=True, **self.KW
        )
        log = EventLog()
        resumed = utilization_sweep(
            self.BINS, journal_path=str(path), resume=True,
            events=log, **self.KW
        )

        def flat(sweep):
            return [
                (
                    bucket.bin_range,
                    bucket.taskset_count,
                    bucket.mean_energy,
                    bucket.normalized_energy,
                    bucket.mk_violation_count,
                )
                for bucket in sweep.bins
            ]

        assert flat(resumed) == flat(first)
        # Every job must come from the journal, none re-executed.
        assert any(event.kind == "job_skip" for event in log.events)
        assert not any(event.kind == "job_start" for event in log.events)
