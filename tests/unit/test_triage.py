"""Tests for the differential fidelity-triage harness."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.harness.events import EventLog
from repro.harness.protocol import PAPER_TARGETS, ExperimentProtocol
from repro.harness.triage import (
    Knob,
    TriageOptions,
    Variant,
    check_report,
    default_knobs,
    format_triage_tables,
    run_triage,
)

#: A deliberately tiny protocol so whole campaigns run in seconds.
TINY = ExperimentProtocol(
    sets_per_bin=2,
    horizon_cap_units=200,
    bins=((0.2, 0.3),),
)


def tiny_knobs(baseline: ExperimentProtocol):
    """One sweep knob and the analysis-only knob: the cheapest campaign
    that still exercises both variant kinds."""
    return (
        Knob(
            name="horizon",
            question="horizon sensitivity",
            variants=(
                Variant(
                    label="short",
                    description="half horizon",
                    protocol=baseline.replace(horizon_cap_units=100),
                ),
            ),
        ),
        Knob(
            name="normalization",
            question="ratio statistic",
            variants=(
                Variant(
                    label="mean-of-ratios",
                    description="per-set ratios",
                    analysis="mean_of_ratios",
                ),
            ),
        ),
    )


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("triage")
    options = TriageOptions(
        out_dir=str(out), panels=("fig6a",), outliers=1, validate=1
    )
    log = EventLog()
    report = run_triage(
        TINY, options, events=log, knobs=tiny_knobs(TINY)
    )
    return report, log, out


class TestReportStructure:
    def test_panel_baseline_and_gap(self, campaign):
        report, _, _ = campaign
        panel = report.panels["fig6a"]
        assert panel.paper_target == PAPER_TARGETS["fig6a"]
        assert isinstance(panel.baseline.headline, float)
        assert panel.gap == pytest.approx(
            panel.paper_target - panel.baseline.headline
        )

    def test_every_variant_reports_delta(self, campaign):
        report, _, _ = campaign
        variants = report.panels["fig6a"].variants
        assert {v.knob for v in variants} == {"horizon", "normalization"}
        for variant in variants:
            assert variant.delta == pytest.approx(
                variant.summary.headline
                - report.panels["fig6a"].baseline.headline
            )

    def test_report_roundtrips_as_json(self, campaign, tmp_path):
        report, _, _ = campaign
        path = tmp_path / "report.json"
        report.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["kind"] == "triage_report"
        assert doc["run_id"] == report.run_id
        assert doc["panels"]["fig6a"]["baseline"]["mk_violations"] == 0
        assert doc["protocol"]["sets_per_bin"] == TINY.sets_per_bin

    def test_analysis_variant_creates_no_journal(self, campaign):
        _, _, out = campaign
        journals = os.listdir(out / "journals")
        assert "fig6a--baseline.jsonl" in journals
        assert "fig6a--horizon--short.jsonl" in journals
        assert not any("normalization" in name for name in journals)

    def test_sweeps_share_one_stored_corpus(self, campaign):
        # The horizon variant keeps the baseline's generator config and
        # seed, so it loads the baseline's corpus from the campaign store.
        _, log, out = campaign
        sources = [event.data["source"] for event in log.of_kind("generation")]
        assert sources == ["generated", "cache"]
        assert len(os.listdir(out / "genstore")) == 1

    def test_outlier_traces_exported_and_clean(self, campaign):
        report, _, _ = campaign
        outliers = report.panels["fig6a"].outliers
        assert len(outliers) == 1
        finding = outliers[0]
        assert finding.audit_issues == 0
        assert set(finding.trace_paths) == {"MKSS_Selective", "MKSS_DP"}
        for path in finding.trace_paths.values():
            assert os.path.exists(path)

    def test_campaign_emits_triage_events(self, campaign):
        _, log, _ = campaign
        assert len(log.of_kind("triage_panel")) == 1
        assert len(log.of_kind("triage_variant")) == 2
        assert len(log.of_kind("triage_outlier")) == 1

    def test_tables_render(self, campaign):
        report, _, _ = campaign
        text = format_triage_tables(report)
        assert "fig6a" in text
        assert "(baseline)" in text
        assert "mean-of-ratios" in text


class TestResume:
    def test_resumed_campaign_skips_jobs_and_agrees(self, campaign):
        report, _, out = campaign
        options = TriageOptions(
            out_dir=str(out),
            panels=("fig6a",),
            outliers=0,
            validate=0,
            resume=True,
        )
        log = EventLog()
        again = run_triage(TINY, options, events=log, knobs=tiny_knobs(TINY))
        assert log.of_kind("job_skip"), "no jobs resumed from the journals"
        assert not log.of_kind("job_start"), "resume re-ran finished jobs"
        assert again.panels["fig6a"].baseline.headline == pytest.approx(
            report.panels["fig6a"].baseline.headline
        )


class TestCheckReport:
    def test_clean_report_passes(self, campaign):
        report, _, _ = campaign
        assert check_report(report) == []

    def test_violations_fail_everywhere(self, campaign):
        report, _, _ = campaign
        victim = report.panels["fig6a"].variants[0]
        original = victim.summary.violations
        victim.summary.violations = 3
        try:
            problems = check_report(report)
        finally:
            victim.summary.violations = original
        assert any("(m,k) violation" in p for p in problems)

    def test_ungated_variant_violations_are_a_finding_not_a_failure(
        self, campaign
    ):
        """Hypothesis-breaking variants (admission off, fault redraws)
        report violations -- that is the measurement -- without failing
        the gate."""
        report, _, _ = campaign
        victim = report.panels["fig6a"].variants[0]
        original = victim.summary.violations
        victim.summary.violations = 3
        victim.gated = False
        try:
            problems = check_report(report)
            tables = format_triage_tables(report)
        finally:
            victim.summary.violations = original
            victim.gated = True
        assert problems == []
        assert "3*" in tables
        assert "deliberately breaks a hypothesis" in tables

    def test_mode_divergence_fails_even_when_ungated(self, campaign):
        report, _, _ = campaign
        victim = report.panels["fig6a"].variants[0]
        original = victim.summary.validation_issues
        victim.summary.validation_issues = 1
        victim.gated = False
        try:
            problems = check_report(report)
        finally:
            victim.summary.validation_issues = original
            victim.gated = True
        assert any("conformance issue" in p for p in problems)

    def test_hypothesis_breaking_default_knobs_are_ungated(self):
        knobs = {k.name: k for k in default_knobs(ExperimentProtocol())}
        assert all(not v.gated for v in knobs["admission"].variants)
        assert all(not v.gated for v in knobs["fault_seed"].variants)
        assert all(not v.gated for v in knobs["release_model"].variants)
        assert all(not v.gated for v in knobs["initial_history"].variants)
        for name in ("horizon", "sets_per_bin", "k_range", "tbe"):
            assert all(v.gated for v in knobs[name].variants), name

    def test_baseline_ordering_regression_fails(self, campaign):
        report, _, _ = campaign
        baseline = report.panels["fig6a"].baseline
        baseline.ordering_ok = False
        try:
            problems = check_report(report)
        finally:
            baseline.ordering_ok = True
        assert any("ordering" in p for p in problems)

    def test_variant_ordering_flip_is_not_a_failure(self, campaign):
        """Ablations may flip the ordering -- that is a finding."""
        report, _, _ = campaign
        victim = report.panels["fig6a"].variants[0]
        victim.summary.ordering_ok = False
        try:
            problems = check_report(report)
        finally:
            victim.summary.ordering_ok = True
        assert problems == []


class TestConfiguration:
    def test_unknown_panel_rejected(self):
        with pytest.raises(ConfigurationError):
            TriageOptions(out_dir="x", panels=("fig6z",))

    def test_unknown_knob_rejected(self, tmp_path):
        options = TriageOptions(
            out_dir=str(tmp_path), panels=("fig6a",), knobs=("warp",)
        )
        with pytest.raises(ConfigurationError):
            run_triage(TINY, options, knobs=tiny_knobs(TINY))

    def test_default_knobs_cover_at_least_six_axes_per_panel(self):
        knobs = default_knobs(ExperimentProtocol.documented())
        for panel in ("fig6a", "fig6b", "fig6c"):
            applicable = [
                k.name
                for k in knobs
                if any(v.applies_to(panel) for v in k.variants)
            ]
            assert len(set(applicable)) >= 6, (panel, applicable)

    def test_fault_seed_knob_skips_the_faultless_panel(self):
        knobs = {k.name: k for k in default_knobs(ExperimentProtocol())}
        reseed = knobs["fault_seed"].variants[0]
        assert not reseed.applies_to("fig6a")
        assert reseed.applies_to("fig6b")
        assert reseed.applies_to("fig6c")

    def test_default_knob_variants_perturb_one_axis(self):
        base = ExperimentProtocol.documented()
        for knob in default_knobs(base):
            for variant in knob.variants:
                if variant.protocol is None:
                    continue
                assert variant.protocol != base, (knob.name, variant.label)

    def test_release_model_knob_covers_the_presets(self):
        knobs = {k.name: k for k in default_knobs(ExperimentProtocol())}
        variants = {v.label: v for v in knobs["release_model"].variants}
        assert set(variants) == {"light", "bursty", "heavy"}
        for label, variant in variants.items():
            model = variant.protocol.release_model
            assert model is not None and not model.is_periodic(), label

    def test_initial_history_knob_covers_non_default_modes(self):
        knobs = {k.name: k for k in default_knobs(ExperimentProtocol())}
        variants = {v.label: v for v in knobs["initial_history"].variants}
        assert set(variants) == {"miss", "rpattern"}
        for label, variant in variants.items():
            assert variant.protocol.initial_history == label
