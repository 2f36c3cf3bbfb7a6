"""Fault-tolerance integration tests: takeover and transient recovery."""

from __future__ import annotations

import pytest

from repro.faults.scenario import FaultScenario
from repro.harness.runner import PAPER_SCHEMES, RunSpec, run_scheme
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.engine import PRIMARY, SPARE
from repro.workload.generator import TaskSetGenerator


@pytest.fixture(scope="module")
def workload():
    return TaskSetGenerator(seed=777).generate(0.5)


class TestPermanentFaultTakeover:
    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    @pytest.mark.parametrize("processor", [PRIMARY, SPARE])
    def test_mk_preserved_after_either_processor_dies(
        self, scheme, processor, workload
    ):
        scenario = FaultScenario.permanent_only(processor=processor, tick=137)
        outcome = run_scheme(
            workload, scheme, scenario, RunSpec(horizon_cap_units=1000)
        )
        assert outcome.metrics.mk_violations == 0

    def test_dead_processor_never_executes_after_fault(self, workload):
        scenario = FaultScenario.permanent_only(processor=PRIMARY, tick=100)
        outcome = run_scheme(
            workload, "MKSS_Selective", scenario=scenario,
            run=RunSpec(horizon_cap_units=600),
        )
        late = [
            s
            for s in outcome.result.trace.segments_on(PRIMARY)
            if s.end > 100
        ]
        assert late == []

    def test_energy_drops_after_fault(self, fig1):
        healthy = run_scheme(fig1, "MKSS_ST")
        faulted = run_scheme(
            fig1,
            "MKSS_ST",
            scenario=FaultScenario.permanent_only(processor=SPARE, tick=0),
        )
        assert faulted.total_energy < healthy.total_energy

    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_random_fault_draws_hold_mk(self, scheme, workload):
        for seed in range(5):
            scenario = FaultScenario.permanent_only(seed=seed)
            outcome = run_scheme(
                workload, scheme, scenario, RunSpec(horizon_cap_units=600)
            )
            assert outcome.metrics.mk_violations == 0, seed


class TestTransientFaults:
    def test_backup_absorbs_main_fault(self):
        """With fault rate forced to 1 only optional jobs can miss; the
        mandatory jobs' backups also fault, so seed a moderate rate and
        check the mandatory misses stay within the (m,k) slack."""
        ts = TaskSet([Task(10, 10, 2, 1, 2), Task(20, 20, 3, 1, 3)])
        scenario = FaultScenario(transient_rate=0.01, seed=5)
        outcome = run_scheme(
            ts, "MKSS_ST", scenario, RunSpec(horizon_cap_units=2000)
        )
        # ST runs every mandatory job twice; a single transient cannot
        # produce a miss, and double-faults are rare at this rate.
        assert outcome.metrics.mk_violations == 0

    def test_paper_rate_rarely_faults(self, workload):
        scenario = FaultScenario.permanent_and_transient(seed=3)
        outcome = run_scheme(
            workload, "MKSS_Selective", scenario=scenario,
            run=RunSpec(horizon_cap_units=1000),
        )
        assert outcome.metrics.transient_faults <= 2
        assert outcome.metrics.mk_violations == 0

    def test_transients_increase_energy_for_selective(self):
        """Deterministically fault every optional job: the tasks fall back
        to mandatory (duplicated) execution and energy rises, while the
        (m,k) constraints still hold via the backup machinery."""
        from repro.model.job import JobRole
        from repro.schedulers import MKSSSelective
        from repro.sim.engine import StandbySparingEngine

        ts = TaskSet([Task(10, 10, 2, 1, 2), Task(20, 20, 3, 1, 3)])
        base = ts.timebase()
        horizon = 60 * base.ticks_per_unit
        clean = StandbySparingEngine(ts, MKSSSelective(), horizon).run()
        noisy = StandbySparingEngine(
            ts,
            MKSSSelective(),
            horizon,
            transient_fault_fn=lambda job, now: job.role is JobRole.OPTIONAL,
        ).run()
        assert noisy.all_mk_satisfied()
        assert noisy.busy_ticks() > clean.busy_ticks()
