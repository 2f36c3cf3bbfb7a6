"""Extension bench: the per-task hybrid scheme vs the paper's schemes.

Not a paper artifact.  The reproduction exposes a crossover (selective
loses to DP at low utilization, where postponed backups are canceled for
free while the FD = 1 rule still executes m/(k-1) > m/k of the jobs); the
MKSS_Hybrid extension resolves it by choosing a mode per task offline.
This bench quantifies the gain over both parents across the sweep.
"""

from __future__ import annotations

from conftest import HORIZON_UNITS, record_sweep

from repro.harness.report import format_series_table
from repro.harness.runner import RunSpec
from repro.harness.sweep import utilization_sweep

EXT_BINS = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6), (0.7, 0.8)]


def test_extension_hybrid_vs_paper_schemes(benchmark, bench_tasksets):
    schemes = ("MKSS_ST", "MKSS_DP", "MKSS_Selective", "MKSS_Hybrid")
    tasksets = {b: bench_tasksets[b] for b in EXT_BINS}
    sweep = benchmark.pedantic(
        lambda: utilization_sweep(
            bins=EXT_BINS,
            schemes=schemes,
            run=RunSpec(horizon_cap_units=HORIZON_UNITS),
            tasksets_by_bin=tasksets,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_series_table(sweep, "Extension: per-task hybrid mode"))
    record_sweep(benchmark, sweep)
    for bucket in sweep.bins:
        hybrid = bucket.mean_energy["MKSS_Hybrid"]
        # The offline cost model is a heuristic (worst-case overlap bound),
        # so allow a small tolerance rather than strict dominance per bin.
        assert hybrid <= bucket.mean_energy["MKSS_DP"] * 1.03
        assert hybrid <= bucket.mean_energy["MKSS_Selective"] * 1.03
        assert all(v == 0 for v in bucket.mk_violation_count.values())
