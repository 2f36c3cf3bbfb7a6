"""Ablation benches for the design choices Section IV argues for.

Each ablation sweeps a handful of utilization bins with one knob flipped:

* **FD threshold** -- select only FD=1 optionals (paper) vs FD<=2 vs the
  greedy everything-goes scheme.  Quantifies "executing optional jobs
  selectively is more promising than greedily".
* **Alternation** -- optionals alternate across processors (paper) vs
  primary-only.  Quantifies principle (ii)/(iii) of Algorithm 1.
* **Postponement** -- backups postponed by θ_i (paper) vs the promotion
  time Y_i only.  Quantifies Definitions 2-5 over Equation 2.
"""

from __future__ import annotations

from conftest import HORIZON_UNITS, record_sweep

from repro.harness.report import format_series_table
from repro.harness.runner import RunSpec
from repro.harness.sweep import utilization_sweep

ABLATION_BINS = [(0.3, 0.4), (0.5, 0.6), (0.7, 0.8)]


def _sweep(schemes, bench_tasksets, scenario_factory=None):
    tasksets = {b: bench_tasksets[b] for b in ABLATION_BINS}
    return utilization_sweep(
        bins=ABLATION_BINS,
        schemes=schemes,
        run=RunSpec(horizon_cap_units=HORIZON_UNITS),
        tasksets_by_bin=tasksets,
        scenario_factory=scenario_factory,
    )


def test_ablation_fd_threshold(benchmark, bench_tasksets):
    schemes = (
        "MKSS_ST",
        "MKSS_Selective",
        "MKSS_Selective_FD2",
        "MKSS_Greedy",
    )
    sweep = benchmark.pedantic(
        lambda: _sweep(schemes, bench_tasksets), rounds=1, iterations=1
    )
    print()
    print(format_series_table(sweep, "Ablation: FD selection threshold"))
    record_sweep(benchmark, sweep)
    for bucket in sweep.bins:
        # Selecting more optional jobs can only cost energy (they carry no
        # backups to drop beyond what FD=1 already drops).
        assert (
            bucket.normalized_energy["MKSS_Selective"]
            <= bucket.normalized_energy["MKSS_Selective_FD2"] + 1e-9
        )


def test_ablation_alternation(benchmark, bench_tasksets):
    schemes = ("MKSS_ST", "MKSS_Selective", "MKSS_Selective_NoAlt")
    sweep = benchmark.pedantic(
        lambda: _sweep(schemes, bench_tasksets), rounds=1, iterations=1
    )
    print()
    print(format_series_table(sweep, "Ablation: processor alternation"))
    record_sweep(benchmark, sweep)
    # Alternation spreads optional load; it must not violate anything and
    # should not lose more than noise overall.
    total_alt = sum(b.mean_energy["MKSS_Selective"] for b in sweep.bins)
    total_noalt = sum(
        b.mean_energy["MKSS_Selective_NoAlt"] for b in sweep.bins
    )
    assert total_alt <= total_noalt * 1.05


def test_ablation_postponement(benchmark, bench_tasksets):
    """θ vs Y matters when backups actually execute, so this ablation
    injects forced transient faults (optional jobs fail), pushing tasks
    into mandatory/backup mode where the postponement interval decides
    how much backup work overlaps the mains."""
    from repro.faults.scenario import FaultScenario

    schemes = ("MKSS_ST", "MKSS_Selective", "MKSS_Selective_NoTheta")
    factory = lambda index: FaultScenario(
        transient_rate=0.02, seed=9000 + index
    )
    sweep = benchmark.pedantic(
        lambda: _sweep(schemes, bench_tasksets, factory),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_series_table(
            sweep, "Ablation: θ vs Y backup postponement (faulty optionals)"
        )
    )
    record_sweep(benchmark, sweep)
    # θ >= Y by construction, so θ postponement can only shrink backup
    # overlap: selective with θ must not lose to the Y-only variant.
    total_theta = sum(b.mean_energy["MKSS_Selective"] for b in sweep.bins)
    total_y = sum(
        b.mean_energy["MKSS_Selective_NoTheta"] for b in sweep.bins
    )
    assert total_theta <= total_y * 1.02
