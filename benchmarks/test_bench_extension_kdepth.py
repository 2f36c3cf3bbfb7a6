"""Extension bench: how (m,k)-window depth shapes the savings.

The paper draws k uniformly from [2, 20].  The FD=1 rule's over-execution
(rate m/(k−1) vs mandatory m/k) shrinks as k grows, and the initial
free-skip phase (k−m−1 jobs) lengthens — so the selective scheme's
advantage should grow with window depth.  This bench fixes the
(m,k)-utilization bin and sweeps the allowed k range.
"""

from __future__ import annotations

from conftest import HORIZON_UNITS, SEED

from repro.harness.report import format_table
from repro.harness.runner import PAPER_SCHEMES, RunSpec, run_scheme
from repro.workload.generator import GeneratorConfig, generate_binned_tasksets

K_RANGES = ((2, 4), (5, 10), (11, 20))
BIN = (0.5, 0.6)
SETS = 5


def _series():
    rows = []
    for k_range in K_RANGES:
        config = GeneratorConfig(k_range=k_range)
        pool = generate_binned_tasksets(
            [BIN], sets_per_bin=SETS, config=config, seed=SEED + k_range[0]
        )[BIN]
        totals = {scheme: 0.0 for scheme in PAPER_SCHEMES}
        for taskset in pool:
            for scheme in PAPER_SCHEMES:
                totals[scheme] += run_scheme(
                    taskset,
                    scheme,
                    run=RunSpec(horizon_cap_units=HORIZON_UNITS),
                ).total_energy
        reference = totals["MKSS_ST"]
        rows.append(
            (
                k_range,
                {s: totals[s] / reference for s in PAPER_SCHEMES},
                len(pool),
            )
        )
    return rows


def test_energy_vs_window_depth(benchmark):
    rows = benchmark.pedantic(_series, rounds=1, iterations=1)
    print()
    table_rows = [
        [f"k in [{lo},{hi}]", str(count)]
        + [f"{norm[s]:.3f}" for s in PAPER_SCHEMES]
        for (lo, hi), norm, count in rows
    ]
    print(
        format_table(
            ["k range", "sets"] + [f"{s} (norm)" for s in PAPER_SCHEMES],
            table_rows,
        )
    )
    for (lo, hi), norm, count in rows:
        assert count > 0, f"no schedulable sets for k in [{lo},{hi}]"
        benchmark.extra_info[f"selective_k{lo}_{hi}"] = round(
            norm["MKSS_Selective"], 4
        )
    # Deep windows favour the selective scheme relative to DP.
    shallow = rows[0][1]
    deep = rows[-1][1]
    shallow_gap = shallow["MKSS_Selective"] - shallow["MKSS_DP"]
    deep_gap = deep["MKSS_Selective"] - deep["MKSS_DP"]
    assert deep_gap <= shallow_gap + 0.02
