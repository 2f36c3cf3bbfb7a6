"""Differential tests: the fast-path engine vs the seed reference engine.

The hot-path overhaul rewrote the engine's dispatch loop (running-job
slots with displacement tests instead of pop/re-push at every boundary),
the trace recording (coalesced segments), the (m,k) history (O(1)
flexibility degrees), and the permanent-fault handling (pending-copy sets
instead of a full logical-job scan).  These tests pin the overhaul to the
seed semantics by running both engines -- the optimized one from the
package and the verbatim pre-overhaul copy in ``tests/reference_engine.py``
-- on the paper's gold examples and on generated workloads, with and
without faults, and requiring identical observable behaviour (the
reference plans every release and recovery through the per-release
profile interpreter of ``tests/reference_profile.py``, so the engine's
compiled release templates are checked too):

* execution segments (what ran where and when),
* logical-job records (outcome, decision time, classification, FD),
* busy ticks / energy-relevant quantities,
* transient fault counts and released job counts.

Coalesced traces must additionally pass both the trace's own overlap
check and the independent post-run validator.
"""

from __future__ import annotations

import itertools

import pytest

from tests.reference_engine import ReferenceStandbySparingEngine
from repro.faults.scenario import FaultScenario
from repro.schedulers import (
    DistanceBasedPriority,
    MKSSDualPriority,
    MKSSGreedy,
    MKSSHybrid,
    MKSSSelective,
    MKSSStatic,
    ReExecutionFP,
    SingleProcessorFP,
)
from repro.sim.engine import StandbySparingEngine
from repro.sim.validation import validate_result
from repro.workload.generator import TaskSetGenerator
from repro.workload.presets import fig1_taskset, fig3_taskset, fig5_taskset

POLICIES = (MKSSStatic, MKSSDualPriority, MKSSSelective, MKSSGreedy)
#: The hybrid and the single-copy baselines, ReExecution_FP's recovery
#: copies among them.
MORE_POLICIES = (
    MKSSHybrid,
    SingleProcessorFP,
    DistanceBasedPriority,
    ReExecutionFP,
)


def record_view(trace):
    return {
        key: (
            record.outcome,
            record.decided_at,
            record.classified_as,
            record.flexibility_degree,
        )
        for key, record in trace.records.items()
    }


def event_count(result, kind):
    return sum(event.kind == kind for event in result.trace.events)


def assert_equivalent(fast, reference):
    """Both engines produced the same observable run."""
    assert fast.trace.segments == reference.trace.segments
    assert event_count(fast, "recovery") == event_count(reference, "recovery")
    assert record_view(fast.trace) == record_view(reference.trace)
    assert fast.busy_ticks() == reference.busy_ticks()
    assert fast.busy_ticks(0) == reference.busy_ticks(0)
    assert fast.busy_ticks(1) == reference.busy_ticks(1)
    assert fast.transient_fault_count == reference.transient_fault_count
    assert fast.released_jobs == reference.released_jobs
    assert fast.mk_satisfied() == reference.mk_satisfied()


def run_both(taskset, policy_cls, horizon_units, **engine_kwargs):
    base = taskset.timebase()
    horizon = horizon_units * base.ticks_per_unit
    fast = StandbySparingEngine(
        taskset, policy_cls(), horizon, base, **engine_kwargs
    ).run()
    reference = ReferenceStandbySparingEngine(
        taskset, policy_cls(), horizon, base, **engine_kwargs
    ).run()
    return fast, reference


class TestGoldVectors:
    """Fig 1/3/5 task sets: every policy, fault-free and with a permfault."""

    @pytest.mark.parametrize("policy_cls", POLICIES)
    @pytest.mark.parametrize(
        "preset", [fig1_taskset, fig3_taskset, fig5_taskset]
    )
    def test_fault_free(self, preset, policy_cls):
        fast, reference = run_both(preset(), policy_cls, 60)
        assert_equivalent(fast, reference)

    @pytest.mark.parametrize("policy_cls", POLICIES)
    @pytest.mark.parametrize(
        "preset", [fig1_taskset, fig3_taskset, fig5_taskset]
    )
    @pytest.mark.parametrize("dead_processor", [0, 1])
    def test_with_permanent_fault(self, preset, policy_cls, dead_processor):
        taskset = preset()
        base = taskset.timebase()
        fault = (dead_processor, 13 * base.ticks_per_unit)
        fast, reference = run_both(
            taskset, policy_cls, 60, permanent_fault=fault
        )
        assert_equivalent(fast, reference)

    def test_coalesced_traces_validate(self):
        for preset in (fig1_taskset, fig3_taskset, fig5_taskset):
            fast, _ = run_both(preset(), MKSSSelective, 60)
            fast.trace.validate()
            assert validate_result(fast) == []


class TestGeneratedWorkloads:
    """50 generated task sets, schemes and fault modes rotating."""

    SEEDS = range(50)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_agreement(self, seed):
        target = 0.3 + 0.05 * (seed % 7)
        taskset = TaskSetGenerator(seed=1000 + seed).generate(target)
        policy_cls = POLICIES[seed % len(POLICIES)]
        base = taskset.timebase()
        engine_kwargs = {}
        if seed % 2 == 1:
            # Odd seeds also kill a processor partway through the run.
            engine_kwargs["permanent_fault"] = (
                seed % 4 // 2,
                (37 + 11 * (seed % 9)) * base.ticks_per_unit,
            )
        fast, reference = run_both(taskset, policy_cls, 300, **engine_kwargs)
        assert_equivalent(fast, reference)
        fast.trace.validate()
        assert validate_result(fast) == []

    def test_transient_faults_agree(self):
        """A deterministic transient-fault oracle hits both engines alike."""

        def oracle(job, now):
            return (job.task_index + job.job_index + now) % 17 == 0

        for seed in (5, 21):
            taskset = TaskSetGenerator(seed=seed).generate(0.4)
            base = taskset.timebase()
            horizon = 300 * base.ticks_per_unit
            fast = StandbySparingEngine(
                taskset, MKSSSelective(), horizon, base,
                transient_fault_fn=oracle,
            ).run()
            reference = ReferenceStandbySparingEngine(
                taskset, MKSSSelective(), horizon, base,
                transient_fault_fn=oracle,
            ).run()
            assert_equivalent(fast, reference)
            assert fast.transient_fault_count > 0

    def test_scenario_faults_agree(self):
        """Materialized FaultScenario oracles drive both engines alike."""
        for seed in (3, 9):
            taskset = TaskSetGenerator(seed=seed).generate(0.5)
            base = taskset.timebase()
            horizon = 300 * base.ticks_per_unit
            scenario = FaultScenario(transient_rate=0.02, seed=seed)
            runs = []
            for engine_cls in (
                StandbySparingEngine,
                ReferenceStandbySparingEngine,
            ):
                transient, permanent = scenario.materialize(horizon, base)
                runs.append(
                    engine_cls(
                        taskset,
                        MKSSSelective(),
                        horizon,
                        base,
                        transient_fault_fn=transient,
                        permanent_fault=permanent,
                    ).run()
                )
            assert_equivalent(runs[0], runs[1])


class TestRecoveriesAndBaselines:
    """The schemes above leave out the hybrid, FP, DBP and
    ReExecution_FP; run them under a deterministic transient oracle
    that fires recoveries, with and without a permanent fault on either
    processor.  A recovery reruns its copy on the copy's own processor;
    the reference sends it to the task's home processor, or to the
    survivor once home has died -- the two must agree."""

    @staticmethod
    def oracle(job, now):
        return (3 * job.task_index + job.job_index + now) % 5 == 0

    @pytest.mark.parametrize("policy_cls", MORE_POLICIES)
    @pytest.mark.parametrize("dead_processor", [None, 0, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_agreement(self, policy_cls, dead_processor, seed):
        taskset = TaskSetGenerator(seed=2000 + seed).generate(
            0.3 + 0.1 * (seed % 3)
        )
        base = taskset.timebase()
        engine_kwargs = {"transient_fault_fn": self.oracle}
        if dead_processor is not None:
            engine_kwargs["permanent_fault"] = (
                dead_processor,
                (41 + 17 * seed) * base.ticks_per_unit,
            )
        fast, reference = run_both(taskset, policy_cls, 300, **engine_kwargs)
        assert_equivalent(fast, reference)
        assert fast.transient_fault_count > 0
        if policy_cls is ReExecutionFP:
            assert event_count(fast, "recovery") > 0
        fast.trace.validate()
