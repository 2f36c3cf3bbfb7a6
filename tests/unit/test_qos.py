"""Unit tests for the QoS monitor and metrics."""

from __future__ import annotations

import pytest

from repro.faults.scenario import FaultScenario
from repro.model.mk import MKConstraint
from repro.qos.metrics import collect_metrics
from repro.qos.monitor import MKMonitor, count_mk_violations, verify_mk
from repro.schedulers import MKSSSelective, MKSSStatic
from repro.schedulers.base import run_policy
from repro.sim.engine import StandbySparingEngine


class TestMKMonitor:
    def test_clean_stream(self):
        monitor = MKMonitor(MKConstraint(1, 2))
        for outcome in (True, False, True, False, True):
            monitor.record(outcome)
        assert monitor.satisfied

    def test_detects_violation_with_position(self):
        monitor = MKMonitor(MKConstraint(2, 3))
        for outcome in (True, True, False, False):
            monitor.record(outcome, task_index=7)
        assert not monitor.satisfied
        violation = monitor.violations[0]
        assert violation.task_index == 7
        assert violation.window_end_job == 4
        assert violation.successes == 1

    def test_short_stream_never_violates(self):
        monitor = MKMonitor(MKConstraint(3, 5))
        monitor.record(False)
        monitor.record(False)
        assert monitor.satisfied

    def test_every_bad_window_reported(self):
        monitor = MKMonitor(MKConstraint(1, 2))
        for _ in range(4):
            monitor.record(False)
        assert len(monitor.violations) == 3

    def test_outcomes_exposed(self):
        monitor = MKMonitor(MKConstraint(1, 2))
        monitor.record(True)
        assert monitor.outcomes == (True,)


class TestVerifyAndMetrics:
    def test_verify_clean_run(self, fig1):
        result = StandbySparingEngine(fig1, MKSSStatic(), 20).run()
        assert verify_mk(result) == []

    def test_metrics_counts_add_up(self, fig1):
        result = StandbySparingEngine(fig1, MKSSSelective(), 20).run()
        metrics = collect_metrics(result)
        assert metrics.released == 6  # 4 tau1 + 2 tau2 releases
        assert metrics.effective + metrics.missed == metrics.released
        assert (
            metrics.mandatory + metrics.optional_executed + metrics.skipped
            == metrics.released
        )
        assert metrics.mk_violations == 0

    def test_metrics_ratios(self, fig1):
        result = StandbySparingEngine(fig1, MKSSSelective(), 20).run()
        metrics = collect_metrics(result)
        assert 0 <= metrics.miss_ratio <= 1
        assert metrics.as_dict()["released"] == 6

    def test_violations_counted_for_skipping_policy(self, fig1):
        from tests.policies import skip_all

        result = StandbySparingEngine(fig1, skip_all(), 40).run()
        metrics = collect_metrics(result)
        assert metrics.mk_violations > 0
        assert metrics.miss_ratio == 1.0


class TestUnifiedViolationCount:
    """Both metric paths must count (m,k) violations identically.

    Regression: trace-mode metrics used to count via verify_mk while
    stats-mode metrics read the engine's per-task ledger -- two separate
    definitions that could drift.  Both now go through
    count_mk_violations, pinned here on fault-heavy paired runs.
    """

    @pytest.mark.parametrize("seed,rate", [(7, 0.05), (7, 0.1), (77, 0.1)])
    def test_trace_and_stats_agree_under_heavy_faults(self, fig1, seed, rate):
        scenario = FaultScenario.permanent_and_transient(seed=seed, rate=rate)
        trace_run = run_policy(fig1, MKSSStatic(), 40, scenario=scenario)
        stats_run = run_policy(
            fig1, MKSSStatic(), 40, scenario=scenario, collect_trace=False
        )
        counts = {
            collect_metrics(trace_run).mk_violations,
            collect_metrics(stats_run).mk_violations,
            count_mk_violations(trace_run),
            count_mk_violations(stats_run),
        }
        assert len(counts) == 1
        assert counts.pop() > 0  # the scenario really is fault-heavy
