"""Extension bench: hardware vs software redundancy.

The paper's introduction motivates standby-sparing (hardware redundancy)
against software re-execution.  This bench quantifies the trade on the
same workloads:

* under *transient-only* fault scenarios, single-processor re-execution
  needs no spare and undercuts every standby-sparing scheme's energy
  while still meeting the (m,k)-constraints (faults are rare and
  recoveries fit in slack);
* under a *permanent* fault, re-execution is exposed: whatever was
  in flight on the dead processor is lost and only releases after the
  fault migrate, while standby-sparing rides through.
"""

from __future__ import annotations

from conftest import HORIZON_UNITS, record_sweep

from repro.faults.scenario import FaultScenario
from repro.harness.report import format_series_table
from repro.harness.runner import RunSpec
from repro.harness.sweep import utilization_sweep

BINS = [(0.2, 0.3), (0.4, 0.5), (0.6, 0.7)]


def test_redundancy_styles_under_transients(benchmark, bench_tasksets):
    schemes = ("MKSS_ST", "MKSS_Selective", "ReExecution_FP")
    tasksets = {b: bench_tasksets[b] for b in BINS}
    factory = lambda index: FaultScenario(
        transient_rate=1e-4, seed=31000 + index
    )
    sweep = benchmark.pedantic(
        lambda: utilization_sweep(
            bins=BINS,
            schemes=schemes,
            run=RunSpec(horizon_cap_units=HORIZON_UNITS),
            tasksets_by_bin=tasksets,
            scenario_factory=factory,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_series_table(
            sweep, "Redundancy styles under transient faults (1e-4/ms)"
        )
    )
    record_sweep(benchmark, sweep)
    for bucket in sweep.bins:
        # Transient-only: re-execution matches selective's energy (same
        # FD=1 executions, no spare duplication of the rare mandatory
        # jobs) -- they should be tied within noise, never clearly worse.
        assert (
            bucket.normalized_energy["ReExecution_FP"]
            <= bucket.normalized_energy["MKSS_Selective"] * 1.02
        )
        # And at this fault rate both keep every (m,k) promise.
        assert bucket.mk_violation_count["ReExecution_FP"] == 0
        assert bucket.mk_violation_count["MKSS_Selective"] == 0


def test_redundancy_styles_under_permanent_faults(benchmark, bench_tasksets):
    """Coverage, not energy: standby-sparing rides through a permanent
    fault by construction; single-processor re-execution may lose
    whatever was in flight (its violations are reported, not asserted,
    because (m,k) slack often absorbs one lost job)."""
    schemes = ("MKSS_ST", "MKSS_Selective", "ReExecution_FP")
    tasksets = {b: bench_tasksets[b] for b in BINS}
    factory = lambda index: FaultScenario.permanent_only(seed=77000 + index)
    sweep = benchmark.pedantic(
        lambda: utilization_sweep(
            bins=BINS,
            schemes=schemes,
            run=RunSpec(horizon_cap_units=HORIZON_UNITS),
            tasksets_by_bin=tasksets,
            scenario_factory=factory,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_series_table(sweep, "Redundancy styles under a permanent fault")
    )
    reexec_violations = sum(
        b.mk_violation_count["ReExecution_FP"] for b in sweep.bins
    )
    print(f"ReExecution_FP (m,k) violations across the sweep: {reexec_violations}")
    benchmark.extra_info["reexec_violations"] = reexec_violations
    for bucket in sweep.bins:
        # The standby-sparing guarantee is unconditional.
        assert bucket.mk_violation_count["MKSS_ST"] == 0
        assert bucket.mk_violation_count["MKSS_Selective"] == 0
