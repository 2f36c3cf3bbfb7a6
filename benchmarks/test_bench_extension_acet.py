"""Extension bench: energy vs actual-to-worst-case execution time ratio.

The paper's evaluation charges WCET everywhere; real jobs finish early,
and early completion compounds the standby-sparing savings (backups get
canceled after executing less).  This bench sweeps the BCET/WCET ratio on
a fixed mid-utilization pool and reports normalized energy per scheme --
the classic "energy vs ACET ratio" series of the DVS/DPD literature.
"""

from __future__ import annotations

from conftest import HORIZON_UNITS, record_sweep

from repro.harness.report import format_table
from repro.harness.runner import PAPER_SCHEMES, RunSpec, run_scheme
from repro.workload.acet import UniformActualTimes

RATIOS = (0.25, 0.5, 0.75, 1.0)
BIN = (0.5, 0.6)


def _series(bench_tasksets):
    tasksets = bench_tasksets[BIN]
    rows = []
    for ratio in RATIOS:
        fn = None if ratio == 1.0 else UniformActualTimes(ratio, seed=97)
        totals = {scheme: 0.0 for scheme in PAPER_SCHEMES}
        for taskset in tasksets:
            for scheme in PAPER_SCHEMES:
                totals[scheme] += run_scheme(
                    taskset,
                    scheme,
                    run=RunSpec(horizon_cap_units=HORIZON_UNITS),
                    execution_time_fn=fn,
                ).total_energy
        reference = totals["MKSS_ST"]
        rows.append(
            (ratio, {s: totals[s] / reference for s in PAPER_SCHEMES})
        )
    return rows


def test_energy_vs_acet_ratio(benchmark, bench_tasksets):
    rows = benchmark.pedantic(
        lambda: _series(bench_tasksets), rounds=1, iterations=1
    )
    print()
    table_rows = [
        [f"{ratio:.2f}"] + [f"{norm[s]:.3f}" for s in PAPER_SCHEMES]
        for ratio, norm in rows
    ]
    print(
        format_table(
            ["BCET/WCET"] + [f"{s} (norm)" for s in PAPER_SCHEMES],
            table_rows,
        )
    )
    # DP's normalized energy improves (or holds) as jobs finish earlier:
    # its backups overlap less before cancellation.
    dp_series = [norm["MKSS_DP"] for _, norm in rows]
    assert dp_series[0] <= dp_series[-1] + 1e-9
    for ratio, norm in rows:
        benchmark.extra_info[f"dp_at_{ratio}"] = round(norm["MKSS_DP"], 4)
