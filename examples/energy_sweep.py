#!/usr/bin/env python3
"""A small Figure 6 sweep: normalized energy vs (m,k)-utilization.

Runs a reduced version of the paper's evaluation (fewer task sets per bin
so it finishes in about a minute) for all three fault scenarios and prints
the series the figures plot.  The full-size sweep lives in
benchmarks/test_bench_fig6*.py.

Run:  python examples/energy_sweep.py [sets_per_bin]
"""

from __future__ import annotations

import sys

from repro import figure6_series, format_series_table
from repro.harness.figures import FIGURE_SCENARIOS
from repro.harness.protocol import ExperimentProtocol


def main() -> None:
    sets_per_bin = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    bins = [(0.2, 0.3), (0.4, 0.5), (0.6, 0.7), (0.8, 0.9)]
    panels = figure6_series(
        ExperimentProtocol(
            bins=bins, sets_per_bin=sets_per_bin, horizon_cap_units=1000
        )
    )
    for panel_id, sweep in panels.items():
        title = f"Figure 6({panel_id[-1]}): {FIGURE_SCENARIOS[panel_id]}"
        print(format_series_table(sweep, title))
        print()
    print(
        "Shape check: MKSS_Selective should undercut MKSS_DP at mid/high\n"
        "utilization with the margin shrinking as faults are added\n"
        "(paper: ~28% no-fault, ~22% permanent, ~16% perm+transient)."
    )


if __name__ == "__main__":
    main()
