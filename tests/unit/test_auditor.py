"""Unit tests for the scheme-aware conformance auditor.

The seeded-mutation tests each corrupt one real run in one precise way
and assert the auditor reports exactly the matching issue kind -- no
misses, no collateral findings.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults.scenario import FaultScenario
from repro.harness.runner import SCHEME_FACTORIES, RunSpec, run_scheme
from repro.harness.validate import (
    AUDIT_MODES,
    AuditReport,
    audit_scheme,
    conformance_spec,
)
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import DistanceBasedPriority, SingleProcessorFP
from repro.sim.validation import (
    ValidationIssue,
    _priority_intervals,
    audit_energy,
    audit_result,
    compare_ledgers,
    result_ledger,
)


RUN_20 = RunSpec(horizon_cap_units=20)


def _kinds(issues):
    return sorted(issue.kind for issue in issues)


def _replace_segment(trace, match, **changes):
    """Swap the unique segment satisfying ``match`` for an edited copy."""
    segments = trace.segments  # seals open tails; the list is live
    hits = [i for i, seg in enumerate(segments) if match(seg)]
    assert len(hits) == 1, f"expected one matching segment, got {len(hits)}"
    segments[hits[0]] = dataclasses.replace(segments[hits[0]], **changes)


class TestConformanceSpec:
    def test_every_scheme_declares_a_suite(self, fig1):
        for scheme in SCHEME_FACTORIES:
            spec = conformance_spec(fig1, scheme, RUN_20)
            assert spec is not None
            assert spec.scheme
            assert len(spec.tasks) == len(fig1)

    def test_unknown_scheme_rejected(self, fig1):
        with pytest.raises(KeyError):
            conformance_spec(fig1, "NoSuchScheme", RUN_20)


class TestCleanRunsAudit:
    @pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
    def test_fig1_clean_in_all_modes(self, fig1, scheme):
        report = audit_scheme(fig1, scheme, run=RUN_20)
        assert isinstance(report, AuditReport)
        assert [audit.mode for audit in report.modes] == list(AUDIT_MODES)
        assert report.ok, _kinds(report.issues)


class TestSeededMutations:
    """Each mutation must trip exactly its own issue kind."""

    def _dp_run(self, fig1):
        outcome = run_scheme(fig1, "MKSS_DP", run=RUN_20)
        return outcome, conformance_spec(fig1, "MKSS_DP", RUN_20)

    def _selective_run(self, fig1):
        outcome = run_scheme(fig1, "MKSS_Selective", run=RUN_20)
        return outcome, conformance_spec(fig1, "MKSS_Selective", RUN_20)

    def test_backup_shifted_before_postponed_release(self, fig1):
        # MKSS_DP postpones tau1's backups by theta = 1: J12's backup
        # legitimately starts at 6 (release 5 + 1).  Starting it at the
        # nominal release instead lands in idle time -- every model-level
        # check still passes -- but violates Definition 2's r-tilde.
        outcome, spec = self._dp_run(fig1)
        _replace_segment(
            outcome.result.trace,
            lambda s: s.role == "backup" and (s.task_index, s.job_index) == (0, 2),
            start=5,
        )
        assert _kinds(audit_result(outcome.result, spec)) == ["postponement"]

    def test_copies_on_swapped_processors_detected(self, fig1):
        # MKSS_DP runs tau1's mains on the primary and its backups on the
        # spare: J12's main [5, 8) on processor 0, its backup [6, 8) on
        # processor 1.  Swapping the two copies' processors keeps every
        # model-level check and the queue order intact; only the
        # placement rule can see it, once per misplaced copy.
        outcome, spec = self._dp_run(fig1)
        trace = outcome.result.trace
        for role, processor in (("main", 1), ("backup", 0)):
            _replace_segment(
                trace,
                lambda s, role=role: s.role == role
                and (s.task_index, s.job_index) == (0, 2),
                processor=processor,
            )
        assert _kinds(audit_result(outcome.result, spec)) == [
            "main-processor",
            "main-processor",
        ]

    def test_main_on_wrong_processor_after_fault_detected(self, fig1):
        # The primary dies at tick 4, so J12 (released at 5) runs one
        # main on the survivor, processor 1.  Recording that main on the
        # dead primary breaks the post-fault placement rule.
        outcome = run_scheme(
            fig1,
            "MKSS_DP",
            scenario=FaultScenario.permanent_only(processor=0, tick=4),
            run=RUN_20,
        )
        spec = conformance_spec(fig1, "MKSS_DP", RUN_20)
        assert not audit_result(outcome.result, spec)
        segments = [
            s for s in outcome.result.trace.segments
            if (s.task_index, s.job_index, s.role) == (0, 2, "main")
        ]
        assert segments and {s.processor for s in segments} == {1}
        _replace_segment(
            outcome.result.trace,
            lambda s: (s.task_index, s.job_index, s.role) == (0, 2, "main")
            and s.start == segments[0].start,
            processor=0,
        )
        assert "main-processor" in _kinds(audit_result(outcome.result, spec))

    def test_optional_executed_outside_fd_window(self, fig1):
        # Reclassify a legitimately skipped job (replayed FD = 2) as an
        # executed optional: MKSS_Selective only runs optionals at FD = 1.
        outcome, spec = self._selective_run(fig1)
        record = outcome.result.trace.records[(0, 1)]
        assert record.classified_as == "skipped"
        record.classified_as = "optional"
        assert _kinds(audit_result(outcome.result, spec)) == ["optional-fd"]

    def test_pinned_optionals_break_alternation(self, fig3):
        # Principle (iii): MKSS_Selective alternates each task's selected
        # optionals between the processors.  The no-alternation ablation
        # runs all of them on the primary, which the Selective profile
        # must flag as misplaced -- and nothing else.
        outcome = run_scheme(
            fig3, "MKSS_Selective_NoAlt", run=RunSpec(horizon_cap_units=25)
        )
        spec = conformance_spec(
            fig3, "MKSS_Selective", RunSpec(horizon_cap_units=25)
        )
        issues = audit_result(outcome.result, spec)
        assert issues
        assert set(_kinds(issues)) == {"optional-processor"}

    def test_optional_after_fault_detected(self, fig1):
        # The spare dies at tick 10, when J1,3 is released at FD = 1.
        # MKSS_Selective skips optionals once a processor is gone (a
        # release at the fault tick counts as after the fault), so the
        # same job recorded as an executed optional breaks the rule.
        outcome = run_scheme(
            fig1,
            "MKSS_Selective",
            scenario=FaultScenario.permanent_only(processor=1, tick=10),
            run=RUN_20,
        )
        spec = conformance_spec(fig1, "MKSS_Selective", RUN_20)
        record = outcome.result.trace.records[(0, 3)]
        assert (record.release, record.flexibility_degree) == (10, 1)
        assert record.classified_as == "skipped"
        record.classified_as = "optional"
        assert _kinds(audit_result(outcome.result, spec)) == [
            "postfault-optional"
        ]

    def test_execution_after_cancellation(self, fig1):
        # J12's backup is cancelled at tick 8 when its main completes
        # fault-free; one extra tick of backup execution (into idle time,
        # still before the deadline, still within 2 x WCET) must be
        # caught as running after the effective decision.
        outcome, spec = self._dp_run(fig1)
        record = outcome.result.trace.records[(0, 2)]
        assert record.decided_at == 8
        _replace_segment(
            outcome.result.trace,
            lambda s: s.role == "backup" and (s.task_index, s.job_index) == (0, 2),
            end=9,
        )
        assert _kinds(audit_result(outcome.result, spec)) == [
            "run-after-success"
        ]

    def test_subthreshold_shutdown_detected(self, fig1):
        # Tamper with the energy report: pretend half a unit of idle time
        # was slept through (one extra transition).  The DPD audit
        # recomputes the legal decomposition from the run and disagrees.
        outcome, _ = self._dp_run(fig1)
        report = outcome.energy
        processor = next(
            p for p, e in sorted(report.per_processor.items())
            if e.idle_units > 0
        )
        entry = report.per_processor[processor]
        shift = entry.idle_units / 2
        report.per_processor[processor] = dataclasses.replace(
            entry,
            idle_units=entry.idle_units - shift,
            sleep_units=entry.sleep_units + shift,
            transition_count=entry.transition_count + 1,
        )
        assert _kinds(audit_energy(outcome.result, report)) == ["dpd"]

    def test_recorded_fd_tamper_detected(self, fig1):
        outcome, spec = self._selective_run(fig1)
        record = outcome.result.trace.records[(0, 2)]
        assert record.flexibility_degree == 1
        record.flexibility_degree = 2
        assert _kinds(audit_result(outcome.result, spec)) == ["fd-mismatch"]

    def test_stats_counter_tamper_diverges(self, fig1):
        reference = run_scheme(fig1, "MKSS_DP", run=RUN_20)
        stats_run = run_scheme(
            fig1, "MKSS_DP", run=RUN_20, collect_trace=False
        )
        stats_run.result.stats.effective += 1
        issues = compare_ledgers(
            result_ledger(reference.result),
            result_ledger(stats_run.result),
            label="stats",
        )
        assert _kinds(issues) == ["mode-divergence"]
        assert "effective" in issues[0].detail

    def test_nested_overlap_detected(self, fig1):
        # Regression for the previous-end overlap bug: a short segment
        # nested inside an earlier, longer one must not reset the
        # watermark and hide the collision with a later segment.
        outcome, spec = self._dp_run(fig1)
        trace = outcome.result.trace
        # tau2's main runs [3,5) on processor 1; shrink it to [3,4) and
        # re-add a copy at [2,4): sorted by start, the [2,4) segment now
        # encloses [3,4) -- both overlap.
        _replace_segment(
            trace,
            lambda s: s.processor == 1
            and s.role == "main"
            and (s.task_index, s.job_index) == (1, 1)
            and s.start == 3,
            start=2,
        )
        issues = audit_result(outcome.result, spec)
        assert "overlap" in _kinds(issues)

    def test_priority_inversions_match_all_pairs_scan(self):
        # Four hard tasks released together every 10 ticks: MKSS_ST runs
        # their mains on the primary in priority order, tau1 [0,1), tau2
        # [1,3), tau3 [3,5), tau4 [5,8).  Running them in reverse order
        # instead makes each main wait while every lower-priority main
        # runs: six inversions per period, two periods.  The trace lists
        # the mains in priority order, the reverse of their start order,
        # so the scan must report each wait's inversions in that order.
        taskset = TaskSet([Task(10, 10, wcet, 2, 2) for wcet in (1, 2, 2, 3)])
        outcome = run_scheme(
            taskset, "MKSS_ST", run=RunSpec(horizon_cap_units=40)
        )
        spec = conformance_spec(
            taskset, "MKSS_ST", RunSpec(horizon_cap_units=40)
        )
        trace = outcome.result.trace
        reversed_order = ((7, 8), (5, 7), (3, 5), (0, 3))
        for task_index, (start, end) in enumerate(reversed_order):
            for job_index in (1, 2):
                _replace_segment(
                    trace,
                    lambda s, key=(task_index, job_index): s.processor == 0
                    and (s.task_index, s.job_index) == key,
                    start=10 * (job_index - 1) + start,
                    end=10 * (job_index - 1) + end,
                )
        running, waiting = _priority_intervals(outcome.result, spec)
        expected = _all_pairs_priority_scan(
            running, waiting, spec.optional_preemption
        )
        assert len(expected) == 12
        issues = audit_result(outcome.result, spec)
        assert [issue for issue in issues if issue.kind == "priority"] == expected


def _all_pairs_priority_scan(running, waiting, optional_preemption):
    """The priority check as every waiting interval against every run on
    its processor: the reference the bisecting scan must reproduce."""
    issues = []
    for processor, waits in waiting.items():
        runs = running[processor]
        for wstart, wend, w_opt, w_key, w_label in waits:
            for rstart, rend, r_opt, r_key, r_label in runs:
                if rend <= wstart or rstart >= wend:
                    continue
                if w_key == r_key and w_opt == r_opt:
                    continue
                overlap = (max(wstart, rstart), min(wend, rend))
                if not w_opt and r_opt:
                    issues.append(
                        ValidationIssue(
                            "priority",
                            f"optional {r_label} ran on processor "
                            f"{processor} during {overlap} while mandatory "
                            f"{w_label} was ready",
                        )
                    )
                elif w_opt == r_opt:
                    if w_opt and not optional_preemption:
                        continue
                    if w_key < r_key:
                        issues.append(
                            ValidationIssue(
                                "priority",
                                f"{r_label} (key {r_key}) ran on processor "
                                f"{processor} during {overlap} while "
                                f"higher-priority {w_label} (key {w_key}) "
                                f"was ready",
                            )
                        )
    return issues


class TestFaultyRunsAudit:
    @pytest.mark.parametrize(
        "scenario",
        [
            FaultScenario.permanent_only(seed=5),
            FaultScenario.permanent_and_transient(seed=6, rate=0.001),
        ],
        ids=["permanent", "permanent+transient"],
    )
    @pytest.mark.parametrize(
        "scheme", ["MKSS_ST", "MKSS_DP", "MKSS_Selective", "ReExecution_FP"]
    )
    def test_paper_schemes_clean_under_faults(self, fig5, scheme, scenario):
        report = audit_scheme(
            fig5, scheme, scenario=scenario, run=RunSpec(horizon_cap_units=60)
        )
        assert report.ok, _kinds(report.issues)


class TestHandWrittenPolicies:
    """FP and DBP run from their profiles but sit outside the scheme
    registry, so the registry-wide audits never run them.  Auditing
    their runs here, across processor and FD-window variants, checks
    that the engine and the auditor read their rules alike:
    classification, the FD window, optional placement before and after
    a fault, and the absence of backups."""

    @pytest.mark.parametrize(
        "scenario",
        [
            None,
            FaultScenario.permanent_only(seed=5, processor=0),
            FaultScenario.permanent_only(seed=5, processor=1),
        ],
        ids=["fault-free", "permanent-primary", "permanent-spare"],
    )
    @pytest.mark.parametrize(
        "factory",
        [
            SingleProcessorFP,
            lambda: SingleProcessorFP(processor=1),
            DistanceBasedPriority,
            lambda: DistanceBasedPriority(processor=1, run_all=True),
        ],
        ids=["FP", "FP-spare", "DBP", "DBP-spare-all"],
    )
    def test_runs_match_their_profile(
        self, monkeypatch, fig3, factory, scenario
    ):
        monkeypatch.setitem(SCHEME_FACTORIES, "hand-written", factory)
        report = audit_scheme(
            fig3, "hand-written", scenario, RunSpec(horizon_cap_units=60)
        )
        assert report.ok, _kinds(report.issues)
