"""Property tests for DVFS as a first-class simulation dimension.

Pins the semantic contract of the deadline-safe frequency-scaling knob:

* **no-op identity** -- a DVFS config whose critical speed is 1 (or that
  simply never stretches anything) produces byte-identical journals,
  fingerprints, and energy reports to a run without the knob;
* **cross-mode identity** -- a DVFS run's result ledger and energy are
  bit-identical across trace, stats-only, and batch-backend execution
  (the batch kernel falls back to the scalar engine per DVFS job);
* **conformance** -- the auditor passes a zero-issue corpus over the
  three DVFS-enabled schemes under every fault regime, and the
  per-segment frequency rules (``dvfs-speed``, ``dvfs-underspeed``,
  ``dvfs-report``) actually fire on doctored runs.

Deliberately absent: an ``E(dvfs) <= E(base)`` assertion.  It is *not*
an invariant of the model -- the DVS leakage adder on full-speed units
plus the shrunken DPD sleep gaps can legally raise total energy for
some task sets (that finding is the triage knob's measurement).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.energy.dvfs import DVFSConfig, SpeedPlan, speed_plan_for
from repro.energy.dvs import DVSModel
from repro.energy.power import PowerModel
from repro.faults.scenario import FaultScenario
from repro.harness.runner import RunSpec, run_scheme
from repro.harness.sweep import utilization_sweep
from repro.harness.validate import audit_scheme
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import MKSSStatic
from repro.schedulers.base import run_policy
from repro.sim.validation import result_ledger, validate_result
from repro.workload.generator import TaskSetGenerator

DVFS_KW = dict(
    bins=[(0.2, 0.3), (0.4, 0.5)],
    sets_per_bin=2,
    seed=77,
)
RUN = RunSpec(horizon_cap_units=250)

SCHEMES = ("MKSS_ST", "MKSS_DP", "MKSS_Selective")


def slack_taskset() -> TaskSet:
    return TaskSet([Task(20, 20, 2, 1, 4), Task(30, 30, 3, 1, 3)])


def journal_rows(path):
    """Journal rows with the volatile per-run fields stripped."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            for volatile in ("run_id", "wall_s", "ts"):
                row.pop(volatile, None)
            rows.append(row)
    return rows


def scenario_for(regime, seed=20200309):
    if regime == "permanent":
        return FaultScenario.permanent_only(seed=seed)
    if regime == "transient":
        return FaultScenario.permanent_and_transient(seed=seed)
    return None


class TestNoOpIdentity:
    """Speed-1.0 DVFS requests are the historical no-DVFS run, byte for
    byte."""

    def test_noop_config_sweep_byte_identical(self, tmp_path):
        """critical speed 1 resolves to None: same journal bytes, same
        fingerprint header, as if the knob were never passed."""
        bare = tmp_path / "bare.jsonl"
        noop = tmp_path / "noop.jsonl"
        utilization_sweep(journal_path=str(bare), run=RUN, **DVFS_KW)
        utilization_sweep(
            journal_path=str(noop),
            run=replace(RUN, dvfs=DVFSConfig(static_power=2.0)),
            **DVFS_KW,
        )
        assert journal_rows(noop) == journal_rows(bare)

    def test_active_dvfs_changes_the_journal(self, tmp_path):
        """Control for the test above: a real config must not be a
        silent no-op."""
        bare = tmp_path / "bare.jsonl"
        dvfs = tmp_path / "dvfs.jsonl"
        utilization_sweep(journal_path=str(bare), run=RUN, **DVFS_KW)
        utilization_sweep(
            journal_path=str(dvfs),
            run=replace(RUN, dvfs=DVFSConfig()),
            **DVFS_KW,
        )
        bare_rows, dvfs_rows = journal_rows(bare), journal_rows(dvfs)
        assert bare_rows != dvfs_rows
        # The fingerprint header carries the knob...
        assert "dvfs" not in bare_rows[0]["fingerprint"]
        assert dvfs_rows[0]["fingerprint"]["dvfs"] == {}

    def test_inapplicable_scheme_runs_identically(self):
        """A config scoped to other schemes leaves this scheme's run
        (ledger and energy report) exactly as without the knob."""
        taskset = slack_taskset()
        bare = run_scheme(
            taskset, "MKSS_Selective", run=RunSpec(horizon_cap_units=120)
        )
        scoped = run_scheme(
            taskset,
            "MKSS_Selective",
            run=RunSpec(
                horizon_cap_units=120, dvfs=DVFSConfig(schemes=("MKSS_ST",))
            ),
        )
        assert scoped.result.speed_plan is None
        assert result_ledger(scoped.result) == result_ledger(bare.result)
        assert scoped.energy == bare.energy

    def test_planless_taskset_runs_identically(self, fig5):
        """A loaded set (no slack, plan None) under an active config is
        byte-identical to the bare run."""
        bare = run_scheme(fig5, "MKSS_ST", run=RunSpec(horizon_cap_units=40))
        dvfs = run_scheme(
            fig5,
            "MKSS_ST",
            run=RunSpec(horizon_cap_units=40, dvfs=DVFSConfig()),
        )
        assert dvfs.result.speed_plan is None
        assert result_ledger(dvfs.result) == result_ledger(bare.result)
        assert dvfs.energy == bare.energy


class TestCrossModeIdentity:
    """Trace, stats, and batch agree bit-for-bit under DVFS."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("regime", ["none", "permanent", "transient"])
    def test_trace_stats_ledgers_identical(self, scheme, regime):
        taskset = slack_taskset()
        scenario = scenario_for(regime)
        run = RunSpec(horizon_cap_units=240, dvfs=DVFSConfig())
        trace = run_scheme(taskset, scheme, scenario, run)
        stats = run_scheme(taskset, scheme, scenario, run, collect_trace=False)
        assert trace.result.speed_plan is not None
        assert result_ledger(stats.result) == result_ledger(trace.result)
        assert stats.energy == trace.energy

    def test_batch_backend_journal_identical_to_pool(self, tmp_path):
        """DVFS jobs fall back to the scalar engine inside the batch
        driver; payloads must not change."""
        pytest.importorskip("numpy")
        pool_path = tmp_path / "pool.jsonl"
        batch_path = tmp_path / "batch.jsonl"
        config = DVFSConfig()
        pool = utilization_sweep(
            journal_path=str(pool_path),
            run=replace(RUN, dvfs=config),
            **DVFS_KW,
        )
        batch = utilization_sweep(
            journal_path=str(batch_path),
            backend="batch",
            run=replace(RUN, dvfs=config),
            **DVFS_KW,
        )
        assert journal_rows(batch_path) == journal_rows(pool_path)
        assert [b.mean_energy for b in batch.bins] == [
            b.mean_energy for b in pool.bins
        ]


class TestConformance:
    """The auditor holds on DVFS corpora and bites on doctored runs."""

    @pytest.mark.parametrize("regime", ["none", "permanent", "transient"])
    def test_zero_issue_corpus(self, regime):
        """Generated sets x the three DVFS schemes x one fault regime:
        the full audit (invariants, frequency rules, energy
        re-derivation, cross-mode differential) reports nothing."""
        config = DVFSConfig()
        for seed in (9100, 9101):
            taskset = TaskSetGenerator(seed=seed).generate(0.35)
            for scheme in SCHEMES:
                report = audit_scheme(
                    taskset,
                    scheme,
                    scenario=scenario_for(regime, seed=seed),
                    run=RunSpec(horizon_cap_units=300, dvfs=config),
                )
                assert report.ok, report.issues

    def test_validate_sampling_passes_in_sweeps(self):
        sweep = utilization_sweep(
            validate=2, run=replace(RUN, dvfs=DVFSConfig()), **DVFS_KW
        )
        assert not sweep.validation_issues

    def _dvfs_trace_run(self):
        taskset = slack_taskset()
        base = taskset.timebase()
        plan = speed_plan_for(taskset, base, DVFSConfig())
        assert plan is not None
        result = run_policy(
            taskset,
            MKSSStatic(),
            240 * base.ticks_per_unit,
            base,
            collect_trace=True,
            speed_plan=plan,
        )
        return result, plan

    def test_scaled_segments_without_plan_flagged(self):
        """Stripping the plan off a scaled run: every scaled segment is
        a ``dvfs-speed`` violation."""
        result, _ = self._dvfs_trace_run()
        assert not validate_result(result)  # intact run is clean
        result.speed_plan = None
        kinds = {issue.kind for issue in validate_result(result)}
        assert "dvfs-speed" in kinds

    def test_underspeed_rule_rejects_below_checked_speed(self):
        """A plan whose dispatch speeds undercut the feasibility-checked
        speed is exactly what the ``dvfs-underspeed`` rule exists for."""
        taskset = slack_taskset()
        base = taskset.timebase()
        honest = speed_plan_for(taskset, base, DVFSConfig())
        doctored = SpeedPlan(
            speeds=honest.speeds,
            stretched_wcets=honest.stretched_wcets,
            # Claim a stricter feasibility check than the mains satisfy.
            checked_speed=max(
                s for s in honest.speeds if s != 1
            ) * 2,
            model=honest.model,
        )
        result = run_policy(
            taskset,
            MKSSStatic(),
            240 * base.ticks_per_unit,
            base,
            collect_trace=True,
            speed_plan=doctored,
        )
        kinds = {issue.kind for issue in validate_result(result)}
        assert "dvfs-underspeed" in kinds

    def test_energy_audit_detects_plan_report_mismatch(self):
        """An energy report charged with a different DVS model than the
        run's plan is a ``dvfs-report`` finding."""
        from repro.energy.accounting import energy_of_result
        from repro.sim.validation import audit_energy

        result, plan = self._dvfs_trace_run()
        report = energy_of_result(result, PowerModel.paper_default())
        assert not audit_energy(result, report)  # intact pair is clean
        result.speed_plan = None
        kinds = {i.kind for i in audit_energy(result, report)}
        assert "dvfs-report" in kinds
        result.speed_plan = SpeedPlan(
            speeds=plan.speeds,
            stretched_wcets=plan.stretched_wcets,
            checked_speed=plan.checked_speed,
            model=DVSModel(alpha=2.1),
        )
        kinds = {i.kind for i in audit_energy(result, report)}
        assert "dvfs-report" in kinds
