"""Differential tests: the batch kernel vs the scalar engine's modes.

The batch backend (:mod:`repro.sim.batch`) advances many independent
simulations in lockstep over numpy arrays.  Its contract is *bit
identity* with the scalar trace engine -- not statistical agreement --
so these tests compare the full observable state (the RunStats ledger,
per-processor busy counts, released-job counts, the permanent-fault
record, energies, violation counts) across three execution modes:
batch, trace, and stats-only.

Transient faults get the same bit-identity bar at rates where they
fire, plus one pinned run per fault rule the kernel copies from the
engine (same-tick sibling draws, processor 0 drawing before processor
1, a faulted main's live backup, a faulted post-fault main or optional
decided missed) and for a skipped release that is a run's last event.
One call whose runs end far apart checks that the kernel's retirement
of finished simulations from its tables loses no counter.

They also pin the harness composition: a ``backend="batch"`` sweep must
produce byte-identical journal rows to the pool backend, resume a
pool-written journal (and vice versa), fall back to the scalar engine
per job mid-batch when a job is not batchable (a re-execution policy
under transient faults), and keep ``validate`` sampling coverage
identical when every job was journal-resumed.

Finally, one profile that uses the ``SchemeProfile`` fields in
combinations no shipped scheme does must be read alike by its three
readers: the engine's compiled release templates, the kernel's tables
and the auditor.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.analysis.promotion import promotion_times
from repro.errors import ConfigurationError
from repro.faults.scenario import FaultScenario
from repro.faults.transient import PoissonTransientFaults
from repro.harness.events import EventLog
from repro.harness.runner import SCHEME_FACTORIES, RunSpec, run_scheme
from repro.harness.sweep import utilization_sweep
from repro.harness.validate import audit_scheme
from repro.model.job import JobOutcome
from repro.model.patterns import EPattern
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.batch import (
    build_batch_item,
    numpy_available,
    run_batch,
    run_batch_payloads,
)
from repro.sim.engine import PRIMARY, SPARE, SchedulingPolicy
from repro.sim.profile import SchemeProfile, TaskProfile
from repro.workload.generator import GeneratorConfig, TaskSetGenerator

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the batch backend requires numpy"
)

SCHEMES = sorted(SCHEME_FACTORIES)


def result_view(result):
    """Aggregates every execution mode exposes (trace mode has no
    RunStats ledger, so this is the common observable surface)."""
    return (
        result.busy_by_processor,
        result.released_jobs,
        result.permanent_fault,
    )


def stats_view(result):
    """Every aggregate the sweep (and energy accounting) can observe."""
    stats = result.stats
    return (
        stats.busy,
        stats.gap_counts,
        stats.released,
        stats.effective,
        stats.missed,
        stats.mandatory,
        stats.optional_executed,
        stats.skipped,
        stats.violations,
        result.transient_fault_count,
    ) + result_view(result)


def scenario_for(seed: int):
    """Rotate fault regimes: fault-free, drawn permfault, pinned early."""
    kind = seed % 3
    if kind == 1:
        return FaultScenario.permanent_only(seed=60 + seed)
    if kind == 2:
        return FaultScenario.permanent_only(
            processor=seed % 2, tick=11, seed=1
        )
    return None


class TestBatchScalarAgreement:
    """Generated workloads x schemes x fault regimes x horizons."""

    SEEDS = range(18)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_modes_agree(self, seed):
        target = 0.3 + 0.05 * (seed % 8)
        taskset = TaskSetGenerator(seed=4000 + seed).generate(target)
        scheme = SCHEMES[seed % len(SCHEMES)]
        horizon = (150, 300, 600)[seed % 3]
        scenario = scenario_for(seed)
        item = build_batch_item(
            taskset, scheme, scenario, run=RunSpec(horizon_cap_units=horizon)
        )
        assert item is not None, "permanent-only jobs must be batchable"
        batch_result = run_batch([item])[0]
        batch_energy, batch_violations = run_batch_payloads([item])[0]

        views = {"batch": stats_view(batch_result)}
        for mode, kwargs in (
            ("trace", dict(collect_trace=True)),
            ("stats", dict(collect_trace=False)),
        ):
            outcome = run_scheme(
                taskset,
                scheme,
                scenario=scenario,
                run=RunSpec(horizon_cap_units=horizon),
                **kwargs,
            )
            if mode == "trace":
                assert result_view(outcome.result) == result_view(
                    batch_result
                )
            else:
                views[mode] = stats_view(outcome.result)
            assert outcome.total_energy == batch_energy, mode
            assert outcome.metrics.mk_violations == batch_violations, mode
        assert views["batch"] == views["stats"], scheme

    def test_mixed_lockstep_batch(self):
        """Many sims with different schemes/scenarios in ONE kernel run."""
        items, expected = [], []
        for seed in range(12):
            taskset = TaskSetGenerator(seed=7000 + seed).generate(
                0.3 + 0.04 * (seed % 6)
            )
            scheme = SCHEMES[seed % len(SCHEMES)]
            scenario = scenario_for(seed)
            item = build_batch_item(
                taskset, scheme, scenario, run=RunSpec(horizon_cap_units=250)
            )
            assert item is not None
            items.append(item)
            expected.append((taskset, scheme, scenario))
        results = run_batch(items)
        assert len(results) == len(items)
        for (taskset, scheme, scenario), batch_result in zip(
            expected, results
        ):
            scalar = run_scheme(
                taskset,
                scheme,
                scenario=scenario,
                run=RunSpec(horizon_cap_units=250),
                collect_trace=False,
            )
            assert stats_view(batch_result) == stats_view(scalar.result), (
                scheme
            )

    def test_wide_mixed_lockstep_batch(self):
        """One kernel call over 108 runs at horizon 500 that mix every
        profiled scheme, 2-10 tasks per set (padded rows), all three
        initial histories, no fault, a permanent fault on either
        processor, and permanent plus Poisson transients that fire.

        The runs advance in lockstep but end at different iterations, so
        every per-step path of the kernel -- merged completions of both
        processors, same-tick fault draws, deadline and skip decides,
        held optionals -- runs beside simulations in other phases.
        """
        config = GeneratorConfig(min_tasks=2, max_tasks=10)
        items, expected = [], []
        for index in range(108):
            taskset = TaskSetGenerator(config, seed=9000 + index).generate(
                0.25 + 0.05 * (index % 11)
            )
            regime = index % 4
            schemes = TRANSIENT_SCHEMES if regime == 3 else SCHEMES
            scheme = schemes[(index // 4) % len(schemes)]
            history = ("met", "miss", "rpattern")[(index // 2) % 3]
            scenario = (
                None,
                FaultScenario.permanent_only(seed=300 + index, processor=0),
                FaultScenario.permanent_only(seed=300 + index, processor=1),
                FaultScenario.permanent_and_transient(
                    seed=300 + index, rate=0.02
                ),
            )[regime]
            item = build_batch_item(
                taskset,
                scheme,
                scenario,
                run=RunSpec(horizon_cap_units=500, initial_history=history),
            )
            assert item is not None
            items.append(item)
            expected.append(
                run_scheme(
                    taskset,
                    scheme,
                    scenario=scenario,
                    run=RunSpec(
                        horizon_cap_units=500, initial_history=history
                    ),
                    collect_trace=False,
                ).result
            )
        assert {len(item.taskset) for item in items} >= {2, 10}
        results = run_batch(items)
        for item, result, scalar in zip(items, results, expected):
            assert stats_view(result) == stats_view(scalar), item.scheme
        faults = [result.transient_fault_count for result in results[3::4]]
        assert sum(faults) > 50 and sum(map(bool, faults)) > 20


#: Every registered scheme but ReExecution_FP, whose profile has recovery
#: copies after a transient fault, which the kernel leaves to the scalar
#: engine.
TRANSIENT_SCHEMES = [s for s in SCHEMES if s != "ReExecution_FP"]


class TestTransientAgreement:
    """Kernel vs engine stats mode where transient faults really fire."""

    @pytest.mark.parametrize("scheme", TRANSIENT_SCHEMES)
    def test_kernel_matches_engine(self, scheme):
        items, expected = [], []
        for index, (rate, processor, history) in enumerate(
            (rate, processor, history)
            for rate in (0.02, 0.2)
            for processor in (None, 0, 1)
            for history in ("met", "miss", "rpattern")
        ):
            taskset = TaskSetGenerator(seed=6100 + index).generate(
                0.3 + 0.05 * (index % 8)
            )
            scenario = FaultScenario(
                transient_rate=rate,
                with_permanent=processor is not None,
                seed=40 + index,
                permanent_processor=processor,
            )
            item = build_batch_item(
                taskset,
                scheme,
                scenario,
                run=RunSpec(horizon_cap_units=200, initial_history=history),
            )
            assert item is not None, "Poisson transients must be batchable"
            items.append(item)
            outcome = run_scheme(
                taskset,
                scheme,
                scenario=scenario,
                run=RunSpec(horizon_cap_units=200, initial_history=history),
                collect_trace=False,
            )
            expected.append(
                (
                    stats_view(outcome.result),
                    (outcome.total_energy, outcome.metrics.mk_violations),
                )
            )
        results = run_batch(items)
        payloads = run_batch_payloads(items)
        for result, payload, (view, scalar_payload) in zip(
            results, payloads, expected
        ):
            assert stats_view(result) == view
            assert payload == scalar_payload
        # The comparison is only worth something if faults fired: at
        # 0.2 per ms every run sees some.
        assert all(result.transient_fault_count for result in results[9:])
        assert sum(result.transient_fault_count for result in results) > 100


class ScriptedRandom(random.Random):
    """A stream whose draws replay a script, then never fault."""

    def __init__(self, script):
        super().__init__(0)
        self._script = list(script)

    def random(self):
        return self._script.pop(0) if self._script else 0.999999


@dataclass
class ScriptedScenario:
    """Poisson transients whose n-th draw is ``draws[n]``, plus an
    optional ``(processor, tick)`` permanent fault.  Each materialize
    replays the script from the start, so the engine and the kernel see
    the same draws."""

    draws: Tuple[float, ...]
    permanent: Optional[Tuple[int, int]] = None

    def materialize(self, horizon_ticks, timebase):
        oracle = PoissonTransientFaults(
            0.1, timebase, seed=ScriptedRandom(self.draws)
        )
        return oracle, self.permanent


class PinnedPolicy(SchedulingPolicy):
    """Every job mandatory-by-FD with a backup ``offset`` after its main
    on the primary, or (``fd_max=1``) optionals on the primary."""

    name = "pinned-transients"
    offset = 0
    fd_max = 0

    def prepare(self, ctx):
        return SchemeProfile(
            self.name,
            (
                TaskProfile("fd", fd_max=self.fd_max, backup_offset=self.offset)
                for _ in ctx.taskset
            ),
        )


def _pinned_runs(monkeypatch, policy, taskset, scenario):
    """(kernel result, engine stats result, engine trace result)."""
    monkeypatch.setitem(SCHEME_FACTORIES, policy.name, policy)
    item = build_batch_item(
        taskset, policy.name, scenario, run=RunSpec(horizon_cap_units=20)
    )
    assert item is not None
    kernel = run_batch([item])[0]
    runs = [
        run_scheme(
            taskset,
            policy.name,
            scenario=scenario,
            run=RunSpec(horizon_cap_units=20),
            collect_trace=collect,
        ).result
        for collect in (False, True)
    ]
    assert stats_view(kernel) == stats_view(runs[0])
    return kernel, runs[0], runs[1]


class PatternedPolicy(PinnedPolicy):
    """Every task on its E-pattern, each backup beside its main."""

    name = "pinned-patterns"

    def prepare(self, ctx):
        return SchemeProfile(
            self.name,
            (
                TaskProfile("pattern", pattern=EPattern(task.mk), backup_offset=0)
                for task in ctx.taskset
            ),
        )


#: One task whose every job is mandatory (FD = 0 under (2,2)), C = 3.
ALWAYS_MANDATORY = TaskSet([Task(10, 10, 3, 2, 2)])
#: One (1,6) task, C = 3, whose E-pattern runs job 1 and skips jobs 2-6
#: of its 60-unit horizon.
SKIPPING = TaskSet([Task(10, 10, 3, 1, 6)])


class TestPinnedTransientCases:
    """One run per fault rule, checked against the engine's trace."""

    def test_cancelled_same_tick_sibling_still_draws(self, monkeypatch):
        # Main (processor 0) and backup (processor 1) both run [0, 3).
        # The main's draw passes, which cancels the backup -- but the
        # backup also finished at tick 3, so it takes the next draw and
        # faults.  Job 2's copies then take draws 2 and 3 and both
        # fault; a kernel that skipped the cancelled sibling's draw
        # would count two faults, not three.
        kernel, _, trace = _pinned_runs(
            monkeypatch, PinnedPolicy, ALWAYS_MANDATORY,
            ScriptedScenario(draws=(0.9, 0.0, 0.0, 0.0)),
        )
        assert kernel.transient_fault_count == 3
        assert (kernel.stats.effective, kernel.stats.missed) == (1, 1)
        record = trace.trace.records[(0, 1)]
        assert (record.outcome, record.decided_at) == (JobOutcome.EFFECTIVE, 3)

    def test_faulted_main_keeps_its_backup(self, monkeypatch):
        class Postponed(PinnedPolicy):
            offset = 5

        # The main faults at tick 3; the backup released at 5 runs
        # [5, 8) and decides the job effective.
        kernel, _, trace = _pinned_runs(
            monkeypatch, Postponed, ALWAYS_MANDATORY,
            ScriptedScenario(draws=(0.0,)),
        )
        assert kernel.transient_fault_count == 1
        assert kernel.stats.effective == 2
        assert kernel.stats.busy[1] == 3  # only job 1's backup ran
        record = trace.trace.records[(0, 1)]
        assert (record.outcome, record.decided_at) == (JobOutcome.EFFECTIVE, 8)

    def test_faulted_postfault_main_missed_at_deadline(self, monkeypatch):
        # The spare dies at tick 0, so job 1 runs one main on the
        # primary; it faults at tick 3 and nothing else can save it.
        kernel, _, trace = _pinned_runs(
            monkeypatch, PinnedPolicy, ALWAYS_MANDATORY,
            ScriptedScenario(draws=(0.0,), permanent=(1, 0)),
        )
        assert kernel.transient_fault_count == 1
        assert (kernel.stats.effective, kernel.stats.missed) == (1, 1)
        record = trace.trace.records[(0, 1)]
        assert (record.outcome, record.decided_at) == (JobOutcome.MISSED, 10)

    def test_faulted_optional_missed_at_completion(self, monkeypatch):
        class Optionals(PinnedPolicy):
            fd_max = 1

        # (1,2) from an all-met history: job 1 is an optional at FD 1;
        # it faults at tick 3, which makes job 2 mandatory.
        kernel, _, trace = _pinned_runs(
            monkeypatch, Optionals, TaskSet([Task(10, 10, 3, 1, 2)]),
            ScriptedScenario(draws=(0.0,)),
        )
        assert kernel.transient_fault_count == 1
        assert (kernel.stats.optional_executed, kernel.stats.mandatory) == (
            1, 1
        )
        record = trace.trace.records[(0, 1)]
        assert record.classified_as == "optional"
        assert (record.outcome, record.decided_at) == (JobOutcome.MISSED, 3)

    def test_same_tick_completions_draw_processor_0_first(self, monkeypatch):
        class Split(PinnedPolicy):
            def prepare(self, ctx):
                return SchemeProfile(
                    self.name,
                    (
                        TaskProfile("fd", main_processor=processor)
                        for processor in (PRIMARY, SPARE)
                    ),
                )

        # Each task's single main runs [0, 3), task 1 on processor 0 and
        # task 2 on processor 1.  Processor 0's copy takes draw 0 and
        # faults; processor 1's takes draw 1 and passes.  Drawing in the
        # other order would fault task 2 instead.
        kernel, _, trace = _pinned_runs(
            monkeypatch, Split, TaskSet([Task(10, 10, 3, 2, 2)] * 2),
            ScriptedScenario(draws=(0.0, 0.9)),
        )
        assert kernel.transient_fault_count == 1
        assert kernel.stats.violations == [1, 0]
        assert trace.trace.records[(0, 1)].outcome == JobOutcome.MISSED
        assert trace.trace.records[(1, 1)].outcome == JobOutcome.EFFECTIVE

    def test_last_skipped_release_is_decided(self, monkeypatch):
        # (1,2) E-pattern: job 1 is mandatory, job 2 skipped.  Both of
        # job 1's copies fault, so it is missed at its deadline, tick 10,
        # the tick job 2 is released and skipped.  Nothing happens after
        # that: only the end-of-run decide records job 2's miss and the
        # violation of the (miss, miss) window it closes.
        kernel, _, trace = _pinned_runs(
            monkeypatch, PatternedPolicy, TaskSet([Task(10, 10, 3, 1, 2)]),
            ScriptedScenario(draws=(0.0, 0.0)),
        )
        assert kernel.transient_fault_count == 2
        assert (kernel.stats.skipped, kernel.stats.violations) == (1, [1])
        assert trace.trace.records[(0, 2)].outcome == JobOutcome.MISSED

    def test_reexecution_under_transients_falls_back(self):
        # Recovery copies follow a fault, and the kernel has none.
        taskset = TaskSetGenerator(seed=3).generate(0.4)
        scenario = FaultScenario.permanent_and_transient(seed=1, rate=0.02)
        assert (
            build_batch_item(
                taskset,
                "ReExecution_FP",
                scenario,
                RunSpec(horizon_cap_units=100),
            )
            is None
        )
        assert (
            build_batch_item(
                taskset,
                "ReExecution_FP",
                FaultScenario.permanent_only(seed=1),
                run=RunSpec(horizon_cap_units=100),
            )
            is not None
        )


class TestColumnRetirement:
    """The kernel drops finished simulations from its tables mid-run."""

    def test_retired_columns_keep_their_counters(self, monkeypatch):
        """One kernel call whose runs end far apart (horizons 60-600),
        under transients that fire: the kernel drops finished columns
        as it goes, and every run must still match the engine.

        The call must retire a column in the iteration whose decide
        recorded that column's last skipped release, and fire transient
        faults in runs that outlived a retirement (their candidate draws
        were re-keyed to new columns).
        """
        from repro.sim import batch_kernel

        kernel_cls = batch_kernel._Kernel
        decide, retire, faulted = (
            kernel_cls._decide, kernel_cls._retire, kernel_cls._faulted
        )
        marked, held, late_faults = [], [], []

        def spy_decide(self):
            marked.append(set(self.orig[self.outcome.any(axis=0)].tolist()))
            decide(self)

        def spy_retire(self, keep):
            held.append(set(self.orig[~keep].tolist()) & marked[-1])
            retire(self, keep)

        def spy_faulted(self, comp, sims, ts):
            bad = faulted(self, comp, sims, ts)
            if bad is not None and self.S < self.S0:
                late_faults.extend(self.orig[sims[bad]].tolist())
            return bad

        monkeypatch.setattr(kernel_cls, "_decide", spy_decide)
        monkeypatch.setattr(kernel_cls, "_retire", spy_retire)
        monkeypatch.setattr(kernel_cls, "_faulted", spy_faulted)
        monkeypatch.setitem(
            SCHEME_FACTORIES, PatternedPolicy.name, PatternedPolicy
        )

        items, expected, skipping = [], [], set()
        for index in range(40):
            if index % 10 in (1, 4, 7):
                # Both copies of job 1 fault, so it is missed; job 6's
                # skipped release at 50, the run's last event, closes the
                # first window, all misses: only the decide after it
                # records that violation.  The twelve copies finish
                # first, in one iteration, taking the active count to 28
                # of 40, which retires them.
                taskset, scheme = SKIPPING, PatternedPolicy.name
                scenario = ScriptedScenario(draws=(0.0, 0.0))
                run = RunSpec(horizon_cap_units=60)
                skipping.add(index)
            else:
                taskset = TaskSetGenerator(seed=8800 + index).generate(
                    0.3 + 0.05 * (index % 9)
                )
                scheme = TRANSIENT_SCHEMES[index % len(TRANSIENT_SCHEMES)]
                scenario = FaultScenario(
                    transient_rate=0.2,
                    with_permanent=index % 3 > 0,
                    seed=700 + index,
                    permanent_processor=(None, 0, 1)[index % 3],
                )
                run = RunSpec(
                    horizon_cap_units=(600, 120, 450, 80, 300, 200)[index % 6]
                )
            item = build_batch_item(taskset, scheme, scenario, run=run)
            assert item is not None
            items.append(item)
            expected.append(
                run_scheme(
                    taskset, scheme, scenario=scenario, run=run,
                    collect_trace=False,
                ).result
            )
        calls = []
        results = run_batch(items, lambda *call: calls.append(call))
        for item, result, scalar in zip(items, results, expected):
            assert stats_view(result) == stats_view(scalar), item.scheme
        assert calls[-1][:2] == (len(items), len(items))
        assert all(results[s].stats.violations == [1] for s in skipping)
        assert skipping <= set().union(*held), "retired before the decide"
        assert len(set(late_faults)) > 3


class VocabularyPolicy(SchedulingPolicy):
    """Profile fields in combinations no shipped scheme uses."""

    name = "profile-vocabulary"
    optional_preemption = True

    def prepare(self, ctx):
        promotions = promotion_times(ctx.taskset, ctx.timebase)
        variants = (
            # Unbounded FD window, mains and alternating optionals that
            # start on the spare, post-fault optionals on the survivor.
            lambda task, y: TaskProfile(
                "fd",
                fd_max=None,
                main_processor=SPARE,
                backup_offset=y,
                optional_processor=SPARE,
                alternate_optionals=True,
                postfault_main_offset=(y, 0),
                postfault_optionals=True,
            ),
            # A static E-pattern on the spare with no backup.
            lambda task, y: TaskProfile(
                "pattern", pattern=EPattern(task.mk), main_processor=SPARE
            ),
            # Optionals pinned to the spare, kept after a fault.
            lambda task, y: TaskProfile(
                "fd",
                fd_max=2,
                backup_offset=0,
                optional_processor=SPARE,
                postfault_main_offset=(0, y),
                postfault_optionals=True,
            ),
            # Algorithm 1's shape: FD = 1, alternating from the primary.
            lambda task, y: TaskProfile(
                "fd",
                fd_max=1,
                main_processor=PRIMARY,
                backup_offset=y,
                alternate_optionals=True,
                postfault_main_offset=(0, y),
            ),
        )
        return SchemeProfile(
            self.name,
            (
                variants[index % len(variants)](task, y)
                for index, (task, y) in enumerate(zip(ctx.taskset, promotions))
            ),
            optional_preemption=self.optional_preemption,
        )


class StickyVocabularyPolicy(VocabularyPolicy):
    name = "profile-vocabulary-sticky"
    optional_preemption = False


class TestProfileVocabulary:
    """One profile, three readers: engine, batch kernel and auditor agree."""

    @pytest.mark.parametrize("policy", [VocabularyPolicy, StickyVocabularyPolicy])
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_engine_and_auditor_agree(self, monkeypatch, policy, seed):
        monkeypatch.setitem(SCHEME_FACTORIES, policy.name, policy)
        taskset = TaskSetGenerator(seed=5100 + seed).generate(0.35)
        scenario = (
            None,
            FaultScenario.permanent_only(seed=70 + seed, processor=0),
            FaultScenario.permanent_only(seed=70 + seed, processor=1),
        )[seed % 3]
        item = build_batch_item(
            taskset, policy.name, scenario, run=RunSpec(horizon_cap_units=200)
        )
        assert item is not None
        scalar = run_scheme(
            taskset,
            policy.name,
            scenario=scenario,
            run=RunSpec(horizon_cap_units=200),
            collect_trace=False,
        )
        assert stats_view(run_batch([item])[0]) == stats_view(scalar.result)
        report = audit_scheme(
            taskset, policy.name, scenario, RunSpec(horizon_cap_units=200)
        )
        assert report.ok, [issue.kind for issue in report.issues]


def journal_job_rows(path):
    """``{key: canonical-json(value)}`` of a journal's job records."""
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            doc = json.loads(line)
            if doc.get("kind") == "job":
                rows[doc["key"]] = json.dumps(doc["value"], sort_keys=True)
    return rows


SWEEP_KW = dict(
    bins=[(0.3, 0.4), (0.7, 0.8)],
    sets_per_bin=2,
    seed=42,
    run=RunSpec(horizon_cap_units=250),
)


class TestSweepBackend:
    """backend='batch' composed with journals, resume, and fallback."""

    def test_payloads_and_journal_match_pool(self, tmp_path):
        pool_journal = tmp_path / "pool.jsonl"
        batch_journal = tmp_path / "batch.jsonl"
        factory = lambda i: FaultScenario.permanent_only(seed=500 + i)  # noqa: E731
        pool = utilization_sweep(
            journal_path=str(pool_journal),
            scenario_factory=factory,
            **SWEEP_KW,
        )
        log = EventLog()
        batch = utilization_sweep(
            journal_path=str(batch_journal),
            scenario_factory=factory,
            backend="batch",
            events=log,
            **SWEEP_KW,
        )
        assert batch.job_payloads == pool.job_payloads
        assert journal_job_rows(batch_journal) == journal_job_rows(
            pool_journal
        )
        assert log.of_kind("batch_progress"), "batch emits progress events"
        for bucket_pool, bucket_batch in zip(pool.bins, batch.bins):
            assert bucket_pool.mean_energy == bucket_batch.mean_energy
            assert (
                bucket_pool.mk_violation_count
                == bucket_batch.mk_violation_count
            )

    def test_mid_batch_scalar_fallback_mix(self):
        """Jobs the kernel cannot take fall back to the scalar engine per
        job: ReExecution_FP plans recovery copies after a transient
        fault, so its transient-capable jobs run scalar while the other
        schemes' transient jobs batch."""

        def factory(index):
            if index % 2:
                return FaultScenario.permanent_and_transient(seed=index)
            return FaultScenario.permanent_only(seed=index)

        kwargs = dict(
            SWEEP_KW, schemes=["MKSS_ST", "MKSS_Selective", "ReExecution_FP"]
        )
        pool = utilization_sweep(scenario_factory=factory, **kwargs)
        log = EventLog()
        batch = utilization_sweep(
            scenario_factory=factory,
            backend="batch",
            events=log,
            **kwargs,
        )
        assert batch.job_payloads == pool.job_payloads
        # The mix really was mixed: some jobs batched, some ran scalar
        # (scalar jobs are the ones that get JOB_START events), and only
        # the re-execution jobs fell back.
        scalar_jobs = {e.data["job"] for e in log.of_kind("job_start")}
        assert scalar_jobs and len(scalar_jobs) < len(batch.job_payloads)
        assert all(job.endswith("|ReExecution_FP") for job in scalar_jobs)
        # The final progress event counts the fallbacks and the kernel's
        # lockstep iterations.
        final = log.of_kind("batch_progress")[-1].data
        assert final["done"] == final["total"]
        assert final["done"] + final["fallback"] == len(batch.job_payloads)
        assert final["fallback"] == len(scalar_jobs)
        assert final["iterations"] > 0

    def test_cross_backend_partial_resume(self, tmp_path):
        """A half-complete pool journal finishes on the batch backend."""
        journal = tmp_path / "resume.jsonl"
        factory = lambda i: FaultScenario.permanent_only(seed=900 + i)  # noqa: E731
        pool = utilization_sweep(
            journal_path=str(journal), scenario_factory=factory, **SWEEP_KW
        )
        full_rows = journal_job_rows(journal)
        # Truncate the journal to its first half of job records.
        kept, job_seen = [], 0
        for line in journal.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if doc.get("kind") == "job":
                job_seen += 1
                if job_seen > len(full_rows) // 2:
                    continue
            kept.append(line)
        journal.write_text(
            "\n".join(kept) + "\n", encoding="utf-8"
        )
        log = EventLog()
        resumed = utilization_sweep(
            journal_path=str(journal),
            resume=True,
            backend="batch",
            scenario_factory=factory,
            events=log,
            **SWEEP_KW,
        )
        assert resumed.job_payloads == pool.job_payloads
        assert journal_job_rows(journal) == full_rows
        counts = log.counts()
        assert counts.get("job_skip") == len(full_rows) // 2

    def test_validate_covers_resumed_jobs(self, tmp_path):
        """Auditor sampling is identical when every job was resumed."""
        journal = tmp_path / "validated.jsonl"
        fresh_log = EventLog()
        utilization_sweep(
            journal_path=str(journal),
            validate=2,
            events=fresh_log,
            **SWEEP_KW,
        )
        resumed_log = EventLog()
        resumed = utilization_sweep(
            journal_path=str(journal),
            resume=True,
            validate=2,
            backend="batch",
            events=resumed_log,
            **SWEEP_KW,
        )
        fresh_audits = [
            (e.data["job"], e.data["scheme"])
            for e in fresh_log.of_kind("validate")
        ]
        resumed_audits = [
            (e.data["job"], e.data["scheme"])
            for e in resumed_log.of_kind("validate")
        ]
        assert fresh_audits and fresh_audits == resumed_audits
        assert resumed_log.counts().get("job_skip") == len(
            resumed.job_payloads
        )
        assert not resumed.validation_issues


class TestNumpyAbsence:
    """Graceful degradation when numpy is not importable."""

    def test_sweep_raises_configuration_error(self, monkeypatch):
        import repro.sim.batch as batch_mod

        monkeypatch.setattr(batch_mod, "_np", None)
        with pytest.raises(ConfigurationError) as excinfo:
            utilization_sweep(backend="batch", **SWEEP_KW)
        assert "repro[batch]" in str(excinfo.value)
        assert "--backend pool" in str(excinfo.value)

    def test_build_batch_item_returns_none(self, monkeypatch):
        import repro.sim.batch as batch_mod

        monkeypatch.setattr(batch_mod, "_np", None)
        taskset = TaskSetGenerator(seed=1).generate(0.4)
        assert (
            build_batch_item(
                taskset, SCHEMES[0], None, run=RunSpec(horizon_cap_units=100)
            )
            is None
        )

    def test_too_old_numpy_counts_as_absent(self, monkeypatch):
        import types

        import numpy

        import repro.sim.batch as batch_mod
        from repro.service.spec import SweepSpec

        old = types.SimpleNamespace(__version__="1.26.4")
        assert batch_mod.supported_numpy(old) is None
        assert batch_mod.supported_numpy(numpy) is numpy
        monkeypatch.setattr(batch_mod, "_np", batch_mod.supported_numpy(old))
        assert not batch_mod.numpy_available()
        with pytest.raises(ConfigurationError) as excinfo:
            batch_mod.require_numpy()
        assert "numpy >= 2.0" in str(excinfo.value)
        # The service default then picks the pool, as without numpy.
        assert SweepSpec.from_dict({"faults": "transient"}).backend == "pool"

    def test_cli_falls_back_to_pool(self, monkeypatch, capsys):
        import repro.sim.batch as batch_mod

        monkeypatch.setattr(batch_mod, "_np", None)
        from repro.cli import main

        rc = main(
            [
                "sweep",
                "--backend",
                "batch",
                "--bins",
                "0.3:0.4",
                "--sets-per-bin",
                "1",
                "--horizon",
                "150",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "falling back to pool" in captured.err
