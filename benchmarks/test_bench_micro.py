"""Microbenchmarks of the package's computational kernels.

Not a paper artifact -- these measure the substrate itself (engine event
throughput, offline analyses, flexibility-degree updates) so regressions
in the simulator show up independently of the figure sweeps.
"""

from __future__ import annotations

import pytest

from repro.analysis.cache import analysis_cache
from repro.analysis.postponement import task_postponement_intervals
from repro.analysis.rta import response_times
from repro.analysis.schedulability import is_rpattern_schedulable
from repro.harness.runner import RunSpec
from repro.model.history import MKHistory
from repro.model.mk import MKConstraint
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import MKSSSelective
from repro.schedulers.base import run_policy
from repro.sim.timeline import ReleaseTimeline
from repro.workload.generator import TaskSetGenerator


def _workload(seed=4242, target=0.5):
    return TaskSetGenerator(seed=seed).generate(target)


def _aligned_taskset():
    """Harmonic periods with k_i * P_i | lcm(P): a 20ms schedule cycle."""
    return TaskSet(
        [
            Task(5, 5, 1, 1, 2),
            Task(10, 10, 2, 1, 2),
            Task(20, 20, 5, 1, 1),
        ]
    )


def test_engine_throughput_long_horizon(benchmark):
    """Simulate ~2000ms of a 5-10 task set with the selective scheme."""
    taskset = _workload()
    base = taskset.timebase()
    horizon = 2000 * base.ticks_per_unit

    def run():
        return run_policy(taskset, MKSSSelective(), horizon, base)

    result = benchmark(run)
    benchmark.extra_info["released_jobs"] = result.released_jobs
    assert result.all_mk_satisfied()


def test_engine_stats_only_long_horizon(benchmark):
    """The same 2000ms run without trace construction (sweep mode)."""
    taskset = _workload()
    base = taskset.timebase()
    horizon = 2000 * base.ticks_per_unit

    def run():
        return run_policy(
            taskset, MKSSSelective(), horizon, base, collect_trace=False
        )

    result = benchmark(run)
    benchmark.extra_info["released_jobs"] = result.released_jobs
    assert result.trace is None
    assert result.all_mk_satisfied()


def test_energy_accounting(benchmark):
    """Both energy accounting paths over one 2000ms run.

    ``energy_from_counts`` over the stats run's idle-gap multiset (what a
    sweep job pays) and ``energy_of`` over the trace run's gaps (what an
    audited or simulated run pays): the DPD rule applied gap by gap.
    """
    from repro.energy.accounting import energy_from_counts, energy_of
    from repro.energy.power import PowerModel

    taskset = _workload()
    base = taskset.timebase()
    horizon = 2000 * base.ticks_per_unit
    traced = run_policy(taskset, MKSSSelective(), horizon, base)
    stats = run_policy(
        taskset, MKSSSelective(), horizon, base, collect_trace=False
    )
    model = PowerModel.paper_default()

    def run():
        return (
            energy_from_counts(
                stats.busy_by_processor, stats.stats.gap_counts, base, model
            ),
            energy_of(traced.trace, base, horizon, model),
        )

    from_counts, from_trace = benchmark(run)
    benchmark.extra_info["gaps"] = sum(
        sum(counts.values()) for counts in stats.stats.gap_counts
    )
    assert from_counts.per_processor == from_trace.per_processor


def test_engine_aligned_long_horizon(benchmark):
    """Stats-only 2000ms run of the phase-aligned set, cycle by cycle:
    ~100 repetitions of one short schedule cycle."""
    taskset = _aligned_taskset()
    base = taskset.timebase()
    horizon = 2000 * base.ticks_per_unit

    def run():
        return run_policy(
            taskset, MKSSSelective(), horizon, base, collect_trace=False
        )

    result = benchmark(run)
    benchmark.extra_info["released_jobs"] = result.released_jobs


def test_engine_dvfs_speed_scaled(benchmark):
    """Stats-only 2000ms run with a DVFS speed plan on the mains.

    Same workload and mode as ``test_engine_stats_only_long_horizon``;
    the delta is the per-segment speed bookkeeping (stretched budgets,
    the speed_busy ledger) the frequency dimension adds to the hot loop.
    """
    from repro.energy.dvfs import DVFSConfig, speed_plan_for

    taskset = _workload()
    base = taskset.timebase()
    horizon = 2000 * base.ticks_per_unit
    plan = speed_plan_for(taskset, base, DVFSConfig())
    assert plan is not None

    def run():
        return run_policy(
            taskset, MKSSSelective(), horizon, base,
            collect_trace=False, speed_plan=plan,
        )

    result = benchmark(run)
    benchmark.extra_info["released_jobs"] = result.released_jobs
    assert result.speed_plan is plan
    assert result.all_mk_satisfied()


def _fig6c_job():
    """One generated set and one seeded Figure 6(c) fault scenario: a
    permanent fault plus Poisson transients at the paper's rate."""
    from repro.faults.scenario import FaultScenario

    return _workload(), FaultScenario.permanent_and_transient(seed=3)


def test_engine_fig6c_jobs(benchmark):
    """Stats-only MKSS_ST, MKSS_DP and MKSS_Selective on one set under
    Figure 6(c)'s faults, at the documented 1500ms horizon.

    The scalar-engine work of a Figure 6(c) sweep job: skipped and
    backed-up releases, postponed backups canceled by their mains, a
    permanent fault, and one transient draw per completing copy."""
    from repro.harness.runner import run_scheme

    taskset, scenario = _fig6c_job()

    def run():
        return [
            run_scheme(
                taskset, scheme, scenario,
                run=RunSpec(horizon_cap_units=1500), collect_trace=False,
            )
            for scheme in ("MKSS_ST", "MKSS_DP", "MKSS_Selective")
        ]

    outcomes = benchmark(run)
    benchmark.extra_info["released_jobs"] = sum(
        outcome.result.released_jobs for outcome in outcomes
    )
    assert all(outcome.result.permanent_fault for outcome in outcomes)


def test_audit_scheme(benchmark):
    """One Figure 6(c) conformance audit of MKSS_Selective at 1500ms: a
    trace run and a stats run, the profile replay, the priority scan and
    the DPD check, as a sweep's ``validate`` pays per audited job."""
    from repro.harness.validate import audit_scheme

    taskset, scenario = _fig6c_job()
    report = benchmark(
        lambda: audit_scheme(
            taskset,
            "MKSS_Selective",
            scenario,
            RunSpec(horizon_cap_units=1500),
        )
    )
    assert report.ok


def test_audit_checks(benchmark):
    """The checks of one Figure 6(c) audit of MKSS_Selective at 1500ms,
    on a prebuilt trace and stats pair: the profile replay, the priority
    scan, both DPD checks and the ledger comparison, derived through one
    trace index as :func:`~repro.harness.validate.audit_scheme` derives
    them -- the auditor's own cost, apart from its two engine runs."""
    from repro.harness.runner import run_scheme
    from repro.harness.validate import conformance_spec
    from repro.sim.trace import TraceIndex
    from repro.sim.validation import (
        audit_energy,
        audit_result,
        compare_ledgers,
        result_ledger,
    )

    taskset, scenario = _fig6c_job()
    run = RunSpec(horizon_cap_units=1500)
    profile = conformance_spec(taskset, "MKSS_Selective", run)
    traced = run_scheme(taskset, "MKSS_Selective", scenario, run)
    stats = run_scheme(
        taskset, "MKSS_Selective", scenario, run, collect_trace=False
    )

    def checks():
        index = TraceIndex(traced.result.trace)
        decisions = {}
        issues = audit_result(traced.result, profile, index=index)
        issues += audit_energy(traced.result, traced.energy, index, decisions)
        issues += compare_ledgers(
            result_ledger(traced.result, index),
            result_ledger(stats.result),
            label="stats",
        )
        issues += audit_energy(stats.result, stats.energy, decisions=decisions)
        return issues

    assert benchmark(checks) == []


def test_sporadic_release_timeline(benchmark):
    """Building the seeded sporadic release sequence for 2000ms -- the
    per-(task set, model) cost the shared-timeline memo amortizes."""
    from repro.workload.release import ReleaseModel

    taskset = _workload()
    base = taskset.timebase()
    horizon = 2000 * base.ticks_per_unit
    model = ReleaseModel.preset("heavy", seed=2)

    timeline = benchmark(
        lambda: ReleaseTimeline(taskset, horizon, base, model)
    )
    benchmark.extra_info["releases"] = len(timeline)
    assert timeline.ticks != ReleaseTimeline(taskset, horizon, base).ticks


def test_shared_release_timeline(benchmark):
    """Building the merged per-task-set release sequence for 2000ms.

    This is the work ``shared_release_timeline`` saves on every run after
    the first: each scheme x scenario used to rediscover the sequence via
    heap events."""
    taskset = _workload()
    base = taskset.timebase()
    horizon = 2000 * base.ticks_per_unit

    timeline = benchmark(lambda: ReleaseTimeline(taskset, horizon, base))
    benchmark.extra_info["releases"] = len(timeline)
    assert len(timeline) > 0


def test_rta_all_tasks(benchmark):
    taskset = _workload(seed=99, target=0.4)
    values = benchmark(lambda: response_times(taskset))
    assert len(values) == len(taskset)


def test_postponement_analysis(benchmark):
    """One cold θ analysis (with its RTA and promotion times).

    The analysis cache is cleared inside the measured callable: every
    round after the first would otherwise time a cache hit."""
    taskset = _workload(seed=7, target=0.4)
    base = taskset.timebase()
    horizon = 2000 * base.ticks_per_unit

    def run():
        analysis_cache().clear()
        return task_postponement_intervals(taskset, base, horizon_ticks=horizon)

    result = benchmark(run)
    assert len(result.thetas) == len(taskset)


def test_schedulability_admission(benchmark):
    taskset = _workload(seed=13, target=0.6)
    ok = benchmark(lambda: is_rpattern_schedulable(taskset))
    assert ok


def test_flexibility_degree_updates(benchmark):
    """One million FD queries+updates on a (5,9) history."""
    def run():
        history = MKHistory(MKConstraint(5, 9))
        total = 0
        for step in range(100_000):
            fd = history.flexibility_degree()
            total += fd
            history.record(fd == 1)
        return total

    total = benchmark(run)
    assert total > 0


def test_bench_batch_sweep(benchmark, bench_tasksets):
    """Batch-kernel sweep throughput at the Figure 6 smoke shape.

    Every (task set, scheme) job of the smoke protocol advances in one
    lockstep kernel -- the work the pool backend does one scalar engine
    at a time.  Batch items are built outside the measured callable:
    task-set generation and admission dominate raw sweep wall clock and
    are identical across backends, so measuring them would mask the
    kernel (see docs/performance.md, "Batch kernel").
    """
    pytest.importorskip("numpy")
    from repro.harness.protocol import smoke_protocol
    from repro.harness.runner import SCHEME_FACTORIES
    from repro.sim.batch import build_batch_item, run_batch_payloads

    # Same protocol object (and environment overrides) as the session
    # fixture that generated ``bench_tasksets`` -- see conftest.py.
    run = smoke_protocol().run_spec()

    items = []
    for key in sorted(bench_tasksets):
        for taskset in bench_tasksets[key]:
            for scheme in sorted(SCHEME_FACTORIES):
                item = build_batch_item(taskset, scheme, None, run)
                assert item is not None
                items.append(item)

    payloads = benchmark(lambda: run_batch_payloads(items))
    benchmark.extra_info["sims"] = len(items)
    assert len(payloads) == len(items)
    assert all(energy > 0 for energy, _ in payloads)


def test_bench_batch_sweep_transient(benchmark, bench_tasksets):
    """Batch-kernel sweep throughput at the smoke shape under Figure 6(c)'s
    faults: one seeded permanent fault plus Poisson transients at the
    paper's rate per task set.

    The kernel takes each run's transient draws from its own oracle and
    keeps only those that could fault; at the paper's rate almost none
    survive, so this guards that the fault path costs the lockstep loop
    next to nothing.  ReExecution_FP plans recovery copies after a
    transient fault and stays on the scalar engine, so it is left out.
    Items are built outside the measured callable, as in
    :func:`test_bench_batch_sweep`.
    """
    pytest.importorskip("numpy")
    from repro.faults.scenario import FaultScenario
    from repro.harness.protocol import smoke_protocol
    from repro.harness.runner import SCHEME_FACTORIES
    from repro.sim.batch import build_batch_item, run_batch_payloads

    protocol = smoke_protocol()
    schemes = sorted(s for s in SCHEME_FACTORIES if s != "ReExecution_FP")
    items = []
    for index, taskset in enumerate(
        taskset
        for key in sorted(bench_tasksets)
        for taskset in bench_tasksets[key]
    ):
        scenario = FaultScenario.permanent_and_transient(
            seed=protocol.transient_seed_base + index
        )
        for scheme in schemes:
            item = build_batch_item(
                taskset, scheme, scenario, protocol.run_spec()
            )
            assert item is not None
            items.append(item)

    payloads = benchmark(lambda: run_batch_payloads(items))
    benchmark.extra_info["sims"] = len(items)
    assert len(payloads) == len(items)
    assert all(energy > 0 for energy, _ in payloads)


def test_workload_generation(benchmark):
    """One full generate() from a fixed seed.

    The generator is re-seeded inside the measured callable: a shared
    generator advances its RNG every round, so successive rounds measure
    different rejection-sampling work (the old baseline's mean was 15x
    its min for exactly that reason).  Re-seeding makes every round
    identical."""
    taskset = benchmark(lambda: TaskSetGenerator(seed=31).generate(0.5))
    assert 5 <= len(taskset) <= 10


def test_generation_phase(benchmark):
    """Cold binned generation: draws, integer screen, admission.

    Three bins x three sets through the per-draw loop -- the per-sweep
    generation cost the digest-keyed store amortizes away on repeats.
    The top bin stops at 0.8 so every bin fills within its draw budget
    and rounds stay identical."""
    from repro.workload.generator import generate_binned_tasksets

    bins = [(0.2, 0.3), (0.5, 0.6), (0.7, 0.8)]
    corpus = benchmark(
        lambda: generate_binned_tasksets(bins, 3, None, 17)
    )
    assert sum(len(v) for v in corpus.values()) == 9


def test_generation_exhausted_bin(benchmark):
    """Cold generation of a top bin whose draw budget runs out.

    Bins above 0.8 rarely admit a set: at the paper's protocol they
    spend their whole draw budget, 96% or more of a cold sweep's draws,
    on candidates the in-bin check and the screen throw away.  This is
    the regime ``test_generation_phase`` deliberately stops short of."""
    from repro.workload.fastgen import GenerationStats
    from repro.workload.generator import generate_binned_tasksets

    def run():
        stats = GenerationStats()
        corpus = generate_binned_tasksets(
            [(0.9, 1.0)], 3, None, 23, max_draws_per_bin=1000, stats=stats
        )
        return corpus, stats

    corpus, stats = benchmark(run)
    assert stats.draws == 1000
    assert len(corpus[(0.9, 1.0)]) < 3


def test_bench_sweep_wall(benchmark):
    """End-to-end utilization_sweep wall clock, generation included.

    The one benchmark that sees the whole pipeline the way a user does:
    generation (cold, no store) plus simulation of every (set, scheme)
    job.  Regressions in either phase land here even when the kernels
    individually look fine."""
    from repro.harness.sweep import utilization_sweep

    bins = [(0.2, 0.3), (0.5, 0.6)]

    def run():
        return utilization_sweep(
            bins,
            schemes=["MKSS_ST", "MKSS_Selective"],
            sets_per_bin=2,
            seed=11,
            run=RunSpec(horizon_cap_units=300),
        )

    sweep = benchmark(run)
    benchmark.extra_info["jobs"] = len(sweep.job_payloads)
    assert set(sweep.schemes) == {"MKSS_ST", "MKSS_Selective"}
